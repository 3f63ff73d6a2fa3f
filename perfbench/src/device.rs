//! Devices the benchmark hands to the store: the program's `FileDevice` for traced
//! runs, a preallocated RAM device for measured ones, and a handle that shares one
//! device between the store and the benchmark.

use crate::common::{err, Run};
use lss_core::device::{DeviceGeometry, FileDevice, SegmentDevice};
use lss_core::{Error, Result, SegmentId, StoreConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A device shared between the store (which owns a `Box<dyn SegmentDevice>`) and the
/// benchmark (which reads its counters).
pub struct SharedDevice(pub Arc<dyn SegmentDevice>);

impl SegmentDevice for SharedDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.0.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.0.read_segment(seg)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.0.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.0.write_segment(seg, image)
    }
    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        self.0.erase_segment(seg)
    }
    fn sync(&self) -> Result<()> {
        self.0.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.0.segment_writes()
    }
}

/// A fresh `FileDevice` for a traced KV workload, named after `name` in the run's
/// directory.
///
/// A traced run (`--trace 1`) uses the program's own device, so the `device.*` spans,
/// the sync cost inside `kv.flush` and the wrapper's self-check measure the program's
/// device code and real `sync_data`. A measured run (`--trace 0`) uses [`RamDevice`]:
/// the bounded end-to-end metrics must be steady from run to run, and the shared disk
/// under a file is not (README.md, "Devices"). The gated durable PUT latency
/// therefore excludes the sync cost.
pub fn file_device(
    run: &Run,
    name: &str,
    config: &StoreConfig,
) -> std::result::Result<Arc<dyn SegmentDevice>, String> {
    Ok(Arc::new(
        FileDevice::create(
            run.dir.join(format!("{name}.dev")),
            config.segment_bytes,
            config.num_segments,
        )
        .map_err(err("create device file"))?,
    ))
}

/// A RAM device with every slot allocated and touched up front. A write copies the
/// image into its slot and an erase leaves the slot as it is, as a file would; nothing
/// is allocated or freed by writes while a run measures, so neither memory nor timing
/// depends on how the allocator recycles 256 KiB blocks. One device serves all of a
/// run's setups: [`RamDevice::reset`] zeroes it between them.
pub struct RamDevice {
    geometry: DeviceGeometry,
    slots: Box<[RwLock<Box<[u8]>>]>,
    /// Slots written since the last reset.
    dirty: Box<[AtomicBool]>,
    writes: AtomicU64,
}

impl RamDevice {
    /// Resident memory of a RAM device for `config`, in MiB: every slot is touched when
    /// the device is made and stays resident, so this is exact. The benchmark subtracts
    /// it from `VmHWM` so that `peak_rss_mib` covers the program.
    pub fn resident_mib(config: &StoreConfig) -> f64 {
        (config.segment_bytes * config.num_segments) as f64 / (1024.0 * 1024.0)
    }

    /// A device for `config`.
    pub fn for_config(config: &StoreConfig) -> Arc<Self> {
        Arc::new(Self::new(config.segment_bytes, config.num_segments))
    }

    pub fn new(segment_bytes: usize, num_segments: usize) -> Self {
        let slots = (0..num_segments)
            .map(|_| {
                let mut slot = vec![0u8; segment_bytes].into_boxed_slice();
                // Fault every page in now rather than on the first write.
                for i in (0..segment_bytes).step_by(4096) {
                    slot[i] = std::hint::black_box(0);
                }
                RwLock::new(slot)
            })
            .collect();
        RamDevice {
            geometry: DeviceGeometry {
                segment_bytes,
                num_segments,
            },
            slots,
            dirty: (0..num_segments).map(|_| AtomicBool::new(false)).collect(),
            writes: AtomicU64::new(0),
        }
    }

    /// Zero every slot written since the last reset, so the device reads as new. No
    /// store may be using it: recovery cannot tell a store's segment images from those
    /// an earlier store left on the same device.
    pub fn reset(&self) {
        for (slot, dirty) in self.slots.iter().zip(self.dirty.iter()) {
            if dirty.swap(false, Ordering::Relaxed) {
                slot.write().expect("slot lock poisoned").fill(0);
            }
        }
    }

    fn slot(&self, seg: SegmentId, offset: u32, len: u32) -> Result<&RwLock<Box<[u8]>>> {
        let end = offset as usize + len as usize;
        match self.slots.get(seg.index()) {
            Some(slot) if end <= self.geometry.segment_bytes => Ok(slot),
            _ => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("segment {seg} range [{offset}, {end}) is outside the device"),
            ))),
        }
    }
}

impl SegmentDevice for RamDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.geometry
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        Ok(self
            .slot(seg, 0, 0)?
            .read()
            .expect("slot lock poisoned")
            .to_vec())
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        let slot = self
            .slot(seg, offset, len)?
            .read()
            .expect("slot lock poisoned");
        Ok(slot[offset as usize..offset as usize + len as usize].to_vec())
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        let slot = self.slot(seg, 0, 0)?;
        if image.len() != self.geometry.segment_bytes {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "segment image is {} bytes, expected {}",
                    image.len(),
                    self.geometry.segment_bytes
                ),
            )));
        }
        slot.write()
            .expect("slot lock poisoned")
            .copy_from_slice(image);
        self.dirty[seg.index()].store(true, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    fn segment_writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_device_round_trips_and_checks_bounds() {
        let d = RamDevice::new(4096, 4);
        let seg = SegmentId(2);
        assert_eq!(d.read_range(seg, 10, 4).unwrap(), vec![0; 4]);
        let image: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        d.write_segment(seg, &image).unwrap();
        assert_eq!(d.read_segment(seg).unwrap(), image);
        assert_eq!(d.read_range(seg, 100, 3).unwrap(), image[100..103]);
        assert_eq!(d.segment_writes(), 1);
        assert!(d.write_segment(seg, &image[..10]).is_err());
        assert!(d.read_range(seg, 4090, 10).is_err());
        assert!(d.read_segment(SegmentId(4)).is_err());
        d.reset();
        assert_eq!(d.read_segment(seg).unwrap(), vec![0; 4096]);
        assert_eq!(d.segment_writes(), 1, "a reset is not a write");
    }
}
