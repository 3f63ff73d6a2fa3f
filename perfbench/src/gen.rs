//! Seeded input generation: a splitmix64 stream, a scrambled Zipf sampler, and the
//! self-checking key/value encodings every workload writes and verifies.
//!
//! Everything here is derived from the run's `--seed` only, so the same seed gives the
//! same keys, values and operation mix; the program under test sees nothing but the
//! generated bytes.

/// splitmix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one run: `seed` is the run's seed, `stream`
    /// separates independent users (connections, writer threads, phases).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The splitmix64 finaliser.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipf over `0..n` (the YCSB / Gray et al. sampler), with hot ranks scattered over the
/// item space by the bijection `item = rank · mul mod n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    mul: u64,
}

impl Zipf {
    pub fn scrambled(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta != 1.0);
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let mut mul = 0x9E37_79B9_7F4A_7C15u64 % n;
        while mul < 2 || gcd(mul, n) != 1 {
            mul = (mul + 1) % n;
        }
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            mul,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        };
        ((rank as u128 * self.mul as u128) % self.n as u128) as u64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A value that names its own key and tag and fills the rest from both, so a reader
/// can tell a correct value from a stale, torn or misplaced one.
pub fn value(len: usize, key: u64, tag: u64) -> Vec<u8> {
    assert!(len >= 16);
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&tag.to_le_bytes());
    let mut s = mix(key ^ mix(tag));
    while v.len() < len {
        s = mix(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let take = (len - v.len()).min(8);
        v.extend_from_slice(&s.to_le_bytes()[..take]);
    }
    v
}

/// The tag of `v` if it is exactly the value [`value`] makes for `key`, else `None`.
pub fn tag_of(v: &[u8], key: u64) -> Option<u64> {
    if v.len() < 16 || v[..8] != key.to_le_bytes() {
        return None;
    }
    let tag = u64::from_le_bytes(v[8..16].try_into().ok()?);
    (value(v.len(), key, tag) == v).then_some(tag)
}

/// A short description of what `got` holds, for error messages.
pub fn describe(got: Option<&[u8]>) -> String {
    match got {
        None => "nothing".into(),
        Some(v) if v.len() < 16 => format!("{} bytes", v.len()),
        Some(v) => format!(
            "{} bytes naming key {} tag {:#x}",
            v.len(),
            u64::from_le_bytes(v[..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(v[8..16].try_into().expect("8 bytes"))
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let z = Zipf::scrambled(1000, 0.99);
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(8, 1);
        assert_ne!(
            a,
            (0..100).map(|_| z.sample(&mut other)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::scrambled(1000, 0.99);
        let mut r = Rng::new(1, 0);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut r) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest 20% of items take well over half of the draws at theta 0.99.
        let top: u32 = counts[..200].iter().sum();
        assert!(top > 60_000, "top 20% got {top}");
    }

    #[test]
    fn values_check_themselves() {
        let v = value(128, 42, 7);
        assert_eq!(tag_of(&v, 42), Some(7));
        assert_eq!(tag_of(&v, 43), None);
        let mut torn = v.clone();
        torn[100] ^= 1;
        assert_eq!(tag_of(&torn, 42), None);
    }
}
