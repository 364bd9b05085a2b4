//! Exact-nanosecond latency samples, nearest-rank percentiles, and the
//! in-memory spans of the traced run.

/// Samples below `DENSE_NS` nanoseconds are counted at exact-nanosecond
/// resolution; slower ones in log-linear buckets `1/SUB_BUCKETS` of their
/// power of two wide (0.2%). Both arrays are allocated up front: recording
/// never allocates, so the benchmark's bookkeeping does not move the
/// allocator state the measured code sees, and memory does not grow with
/// the request rate.
const DENSE_BITS: u32 = 14;
const DENSE_NS: usize = 1 << DENSE_BITS;
const SUB_BITS: u32 = 9;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Powers of two above the dense range that get buckets (up to ~68 s).
const SLOW_EXPS: usize = 36 - DENSE_BITS as usize;

/// Every sample of one latency class.
pub struct NsHist {
    dense: Vec<u32>,
    slow: Vec<u32>,
    n: u64,
    sum: u64,
}

/// Bucket of a sample at or above `DENSE_NS`, saturating at the top.
fn slow_bucket(ns: u64) -> usize {
    let e = 63 - ns.leading_zeros();
    let sub = (ns >> (e - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (((e - DENSE_BITS) as usize) * SUB_BUCKETS + sub).min(SLOW_EXPS * SUB_BUCKETS - 1)
}

/// Midpoint of a slow bucket, in nanoseconds.
fn slow_value(bucket: usize) -> u64 {
    let e = (bucket / SUB_BUCKETS) as u32 + DENSE_BITS;
    let width = 1u64 << (e - SUB_BITS);
    (1u64 << e) + (bucket % SUB_BUCKETS) as u64 * width + width / 2
}

impl NsHist {
    pub fn new() -> Self {
        // `resize` writes every page now (`vec![0; n]` would leave them
        // untouched until first use), so the arrays' resident size is the
        // same on every run whatever the latency distribution.
        #[allow(clippy::slow_vector_initialization)]
        let zeroed = |n| {
            let mut v = Vec::with_capacity(n);
            v.resize(n, 0u32);
            v
        };
        NsHist {
            dense: zeroed(DENSE_NS),
            slow: zeroed(SLOW_EXPS * SUB_BUCKETS),
            n: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.dense.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow[slow_bucket(ns)] += 1,
        }
        self.n += 1;
        self.sum += ns;
    }

    pub fn merge(&mut self, o: &NsHist) {
        for (a, b) in self.dense.iter_mut().zip(&o.dense) {
            *a += b;
        }
        for (a, b) in self.slow.iter_mut().zip(&o.slow) {
            *a += b;
        }
        self.n += o.n;
        self.sum += o.sum;
    }

    /// Forget every sample, keeping the buffers.
    pub fn clear(&mut self) {
        self.dense.fill(0);
        self.slow.fill(0);
        self.n = 0;
        self.sum = 0;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum of every recorded sample.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank percentile, `pm` in per mille (500 = p50, 990 = p99):
    /// the smallest sample with at least `ceil(n * pm / 1000)` samples at
    /// or below it (to within 0.2% above the dense range). `None` without
    /// samples.
    pub fn percentile(&self, pm: u64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = nearest_rank(self.n, pm);
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        for (b, &c) in self.slow.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(slow_value(b));
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

/// 1-based rank of the nearest-rank percentile `pm` (per mille) of `n`
/// samples.
pub fn nearest_rank(n: u64, pm: u64) -> u64 {
    (n * pm).div_ceil(1000).max(1)
}

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole request: draw, store call, session bump.
    Request,
    /// The `ShardedKv` call (scan: `privatize_and_scan` + `publish_back`).
    Call,
    /// The session `TVar` bump.
    Bump,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Call => "call",
            SpanKind::Bump => "bump",
        }
    }
}

/// One recorded interval. Spans of one request share `req`; the parent of
/// a `Call` or `Bump` span is the `Request` span of the same `req`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub req: u64,
    pub kind: SpanKind,
    /// Class label of the store call, for every span of the request.
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A parent span's self time: its duration minus the part of it that the
/// union of its children's intervals covers (children clipped to the
/// parent, overlaps counted once).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (p1 - p0) - covered
}

/// Self time of every request in `spans`, which holds whole requests
/// (a `Request` span and its children, in any order).
pub fn request_self_times(spans: &[Span]) -> Vec<u64> {
    // Per request: its own interval, and its children's.
    type Family = (Option<(u64, u64)>, Vec<(u64, u64)>);
    let mut by_req: std::collections::BTreeMap<u64, Family> = Default::default();
    for s in spans {
        let e = by_req.entry(s.req).or_default();
        match s.kind {
            SpanKind::Request => e.0 = Some((s.start_ns, s.end_ns)),
            _ => e.1.push((s.start_ns, s.end_ns)),
        }
    }
    by_req
        .into_values()
        .filter_map(|(parent, kids)| parent.map(|p| self_time(p, &kids)))
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_synthetic_samples() {
        let mut h = NsHist::new();
        for ns in 1..=100u64 {
            h.record(ns * 10);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_ns(), 50_500);
        assert_eq!(h.percentile(500), Some(500));
        assert_eq!(h.percentile(990), Some(990));
        assert_eq!(h.percentile(1000), Some(1000));
        assert_eq!(h.percentile(1), Some(10), "lowest rank is 1");
        assert_eq!(nearest_rank(10, 500), 5);
        assert_eq!(nearest_rank(11, 500), 6);
        assert_eq!(nearest_rank(1000, 990), 990);
        assert_eq!(nearest_rank(1001, 990), 991);
        assert_eq!(NsHist::new().percentile(500), None);
    }

    #[test]
    fn percentiles_cross_into_slow_buckets() {
        let mut h = NsHist::new();
        for _ in 0..98 {
            h.record(700);
        }
        let (a, b) = (DENSE_NS as u64 + 5, 3_000_000u64);
        h.record(a);
        h.record(b);
        let close = |got: Option<u64>, want: u64| {
            let got = got.unwrap() as f64;
            assert!(
                (got - want as f64).abs() <= want as f64 / SUB_BUCKETS as f64,
                "{got} vs {want}"
            );
        };
        assert_eq!(h.percentile(500), Some(700));
        close(h.percentile(990), a);
        close(h.percentile(1000), b);
        assert_eq!(h.sum_ns(), 98 * 700 + a + b, "sums stay exact");
        let mut other = NsHist::new();
        other.record(1);
        other.merge(&h);
        assert_eq!(other.count(), 101);
        assert_eq!(other.percentile(1), Some(1));
        close(other.percentile(1000), b);
    }

    #[test]
    fn slow_buckets_are_ordered_and_tight() {
        let mut last = 0;
        for ns in (DENSE_NS as u64..1 << 24).step_by(997) {
            let b = slow_bucket(ns);
            assert!(b >= last, "buckets follow sample order");
            last = b;
            let mid = slow_value(b);
            assert!(mid.abs_diff(ns) * SUB_BUCKETS as u64 <= ns, "{ns} -> {mid}");
        }
        assert_eq!(
            slow_bucket(u64::MAX),
            SLOW_EXPS * SUB_BUCKETS - 1,
            "saturates"
        );
    }

    #[test]
    fn span_self_time_subtracts_covered_union() {
        // Two disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Children clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // No children, and a fully covered parent.
        assert_eq!(self_time((5, 9), &[]), 4);
        assert_eq!(self_time((5, 9), &[(0, 100)]), 0);
        let span = |req, kind, start_ns, end_ns| Span {
            req,
            kind,
            class: "get",
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, SpanKind::Call, 12, 40),
            span(1, SpanKind::Request, 10, 60),
            span(1, SpanKind::Bump, 45, 55),
            span(2, SpanKind::Request, 100, 110),
            span(2, SpanKind::Call, 101, 109),
        ];
        assert_eq!(request_self_times(&spans), vec![12, 2]);
    }
}
