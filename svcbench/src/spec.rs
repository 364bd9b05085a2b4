//! Workload definitions, the prefilled key set, and the seeded request
//! generator. Everything here is a pure function of the workload and the
//! seed: a client's request sequence depends only on the seed and the
//! client index, never on timing.

use tm_service::{spread, SplitMix64, Zipf};

/// The request classes a client issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Get,
    Put,
    Rmw,
    /// `privatize_and_scan` of the key's shard, then `publish_back`.
    Scan,
    /// `snapshot_all`: every shard behind one grace period.
    Snapshot,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Get,
        Class::Put,
        Class::Rmw,
        Class::Scan,
        Class::Snapshot,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        match self {
            Class::Get => "get",
            Class::Put => "put",
            Class::Rmw => "rmw",
            Class::Scan => "scan",
            Class::Snapshot => "snapshot",
        }
    }
}

/// Request mix in per mille, indexed by [`Class::index`]; sums to 1000.
#[derive(Clone, Copy, Debug)]
pub struct Mix(pub [u32; 5]);

impl Mix {
    /// Pick a class from one raw uniform draw.
    pub fn pick(&self, raw: u64) -> Class {
        let r = (raw % 1000) as u32;
        let mut upto = 0;
        for class in Class::ALL {
            upto += self.0[class.index()];
            if r < upto {
                return class;
            }
        }
        panic!("mix {:?} does not sum to 1000", self.0)
    }
}

/// One workload: store shape, occupancy, key popularity and request mix.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub shards: usize,
    pub keys_per_shard: u64,
    /// Prefilled keys per shard, in per mille of `keys_per_shard`. Requests
    /// draw only prefilled keys, so puts update and never insert and the
    /// probe cost of every `TxMap` stays at this occupancy for the run.
    pub occupancy_pm: u64,
    /// Zipf skew over the prefilled keys; `None` draws them uniformly.
    pub theta: Option<f64>,
    pub mix: Mix,
}

/// The benchmark's workloads. Why each exists is in `README.md`.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "point-hot",
        shards: 8,
        keys_per_shard: 1024,
        occupancy_pm: 500,
        theta: Some(0.99),
        mix: Mix([700, 150, 145, 5, 0]),
    },
    Spec {
        name: "privatize",
        shards: 8,
        keys_per_shard: 1024,
        occupancy_pm: 500,
        theta: Some(0.9),
        mix: Mix([450, 200, 150, 195, 5]),
    },
    Spec {
        name: "large-uniform",
        shards: 64,
        keys_per_shard: 16384,
        occupancy_pm: 500,
        theta: None,
        mix: Mix([300, 400, 299, 1, 0]),
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn prefill_per_shard(&self) -> u64 {
        self.keys_per_shard * self.occupancy_pm / 1000
    }

    pub fn prefill_total(&self) -> u64 {
        self.prefill_per_shard() * self.shards as u64
    }

    /// The Zipf sampler over the prefilled keys (`None` for uniform). Its
    /// O(n) precomputation is input generation, not set-up.
    pub fn zipf(&self) -> Option<Zipf> {
        self.theta
            .map(|t| Zipf::new(self.prefill_total() as usize, t))
    }
}

/// The prefilled key set: for each shard, a seeded choice of
/// [`Spec::prefill_per_shard`] distinct keys of its range. Sorted, hence
/// grouped by shard.
pub fn key_set(spec: &Spec, seed: u64) -> Vec<u64> {
    let kps = spec.keys_per_shard;
    let take = spec.prefill_per_shard() as usize;
    let mut keys = Vec::with_capacity(spec.prefill_total() as usize);
    let mut pool: Vec<u64> = Vec::with_capacity(kps as usize);
    for shard in 0..spec.shards as u64 {
        let mut rng = SplitMix64::new(
            seed ^ 0xA076_1D64_78BD_642F ^ shard.wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        pool.clear();
        pool.extend(0..kps);
        // Partial Fisher-Yates: the first `take` slots are a uniform choice.
        for i in 0..take {
            let j = i + (rng.next_u64() % (kps - i as u64)) as usize;
            pool.swap(i, j);
        }
        let lo = shard * kps;
        let start = keys.len();
        keys.extend(pool[..take].iter().map(|k| lo + k));
        keys[start..].sort_unstable();
    }
    keys
}

/// Keys missing from `dump` plus keys in `dump` that were never
/// prefilled. Both inputs sorted by key.
pub fn key_set_diff(expected: &[u64], dump: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < expected.len() || j < dump.len() {
        match (expected.get(i), dump.get(j).map(|e| e.0)) {
            (Some(&a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(&a), Some(b)) if a < b => {
                diff += 1;
                i += 1;
            }
            (Some(_), None) => {
                diff += 1;
                i += 1;
            }
            _ => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff
}

/// One drawn request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    pub class: Class,
    pub key: u64,
    /// Put value, or the rmw delta's source bits.
    pub arg: u64,
}

/// A client's request stream.
pub struct RequestGen<'a> {
    rng: SplitMix64,
    mix: Mix,
    zipf: Option<&'a Zipf>,
    keys: &'a [u64],
}

impl<'a> RequestGen<'a> {
    pub fn new(
        spec: &Spec,
        seed: u64,
        client: usize,
        zipf: Option<&'a Zipf>,
        keys: &'a [u64],
    ) -> Self {
        assert!(
            !keys.is_empty(),
            "request keys come from a non-empty prefilled set"
        );
        let stream = (client as u64 + 1).wrapping_mul(0x5851_F42D_4C95_7F2D);
        RequestGen {
            rng: SplitMix64::new(seed ^ stream),
            mix: spec.mix,
            zipf,
            keys,
        }
    }

    pub fn next_req(&mut self) -> Req {
        let class = self.mix.pick(self.rng.next_u64());
        let n = self.keys.len() as u64;
        let raw = self.rng.next_u64();
        let rank = match self.zipf {
            Some(z) => z.sample(raw) as u64,
            None => raw % n,
        };
        let key = self.keys[spread(rank, n) as usize];
        Req {
            class,
            key,
            arg: self.rng.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_picker_matches_per_mille_proportions() {
        let mix = Mix([450, 200, 150, 195, 5]);
        // Every residue mod 1000 exactly once: the counts are the mix.
        let mut counts = [0u32; 5];
        for raw in 0..1000u64 {
            counts[mix.pick(raw + 7 * 1000).index()] += 1;
        }
        assert_eq!(counts, mix.0);
        // And over random draws the shares land within 1 percentage point.
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u64; 5];
        let n = 200_000;
        for _ in 0..n {
            counts[mix.pick(rng.next_u64()).index()] += 1;
        }
        for (c, &want) in counts.iter().zip(&mix.0) {
            let got = *c as f64 * 1000.0 / n as f64;
            assert!((got - want as f64).abs() < 10.0, "{got} vs {want}");
        }
    }

    #[test]
    fn every_workload_mix_sums_to_1000() {
        for w in &WORKLOADS {
            assert_eq!(w.mix.0.iter().sum::<u32>(), 1000, "{}", w.name);
        }
    }

    #[test]
    fn one_seed_gives_identical_per_client_sequences() {
        let spec = Spec::by_name("privatize").unwrap();
        let keys = key_set(spec, 42);
        assert_eq!(keys, key_set(spec, 42));
        let zipf = spec.zipf();
        let draw = |client| {
            let mut g = RequestGen::new(spec, 42, client, zipf.as_ref(), &keys);
            (0..5000).map(|_| g.next_req()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0));
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(0), draw(1), "clients draw distinct streams");
        let mut other = RequestGen::new(spec, 43, 0, zipf.as_ref(), &keys);
        assert_ne!(
            draw(0)[..50],
            (0..50).map(|_| other.next_req()).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn key_set_has_stated_occupancy_per_shard() {
        let spec = Spec::by_name("point-hot").unwrap();
        let keys = key_set(spec, 9);
        assert_eq!(keys.len() as u64, spec.prefill_total());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        for s in 0..spec.shards as u64 {
            let in_shard = keys
                .iter()
                .filter(|&&k| k / spec.keys_per_shard == s)
                .count() as u64;
            assert_eq!(in_shard, spec.prefill_per_shard());
        }
    }

    #[test]
    fn requests_draw_only_prefilled_keys() {
        let spec = Spec::by_name("large-uniform").unwrap();
        let keys = key_set(spec, 5);
        let mut g = RequestGen::new(spec, 5, 1, None, &keys);
        for _ in 0..10_000 {
            assert!(keys.binary_search(&g.next_req().key).is_ok());
        }
    }

    #[test]
    fn key_set_check_flags_missing_and_phantom_keys() {
        let expected = vec![1, 4, 9, 12];
        let full: Vec<(u64, u64)> = expected.iter().map(|&k| (k, 0)).collect();
        assert_eq!(key_set_diff(&expected, &full), 0);
        let missing: Vec<_> = full.iter().copied().filter(|e| e.0 != 9).collect();
        assert_eq!(key_set_diff(&expected, &missing), 1);
        let mut phantom = full.clone();
        phantom.push((13, 0));
        assert_eq!(key_set_diff(&expected, &phantom), 1);
        assert_eq!(key_set_diff(&expected, &[(2, 0)]), 5);
        assert_eq!(key_set_diff(&expected, &[]), 4);
    }
}
