//! Full-table prefix-block placement.
//!
//! Real routing tables are not one prefix per AS: a handful of large
//! networks originate thousands of prefixes while the long tail announces
//! one or two, and the distribution of per-AS table share is heavy-tailed
//! (Zipf-like over the origination rank). This module turns a target table
//! size into a per-AS *block plan* — how many prefixes each AS originates
//! and which contiguous CIDR block they are carved from — without touching
//! any RNG stream: the plan is a pure function of `(as_count, table_size,
//! skew)`, so workloads stay bit-reproducible.
//!
//! Blocks are carved address-contiguously in AS order out of `10.0.0.0/8`.
//! Because the generators place ASes on the grid in id order, contiguous
//! AS ranges are spatially meaningful, and a contiguous *regional* failure
//! withdraws contiguous address space — which is what makes burst
//! withdrawals aggregatable and is how real allocation policy behaves
//! (providers announce covering aggregates for their region).

/// How per-AS prefix counts are skewed across the table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrefixPlan {
    /// Total prefixes across every AS (each AS gets at least one, so the
    /// realized total is `max(total, as_count)`).
    pub total: u32,
    /// Zipf exponent over the AS rank: 0.0 = uniform, ~1.0 = Internet-like
    /// (a few ASes own most of the table).
    pub skew: f64,
}

impl PrefixPlan {
    /// An Internet-like plan: `total` prefixes, Zipf exponent 1.0.
    pub fn internet_like(total: u32) -> PrefixPlan {
        PrefixPlan { total, skew: 1.0 }
    }

    /// A uniform plan: every AS originates `total / as_count` prefixes.
    pub fn uniform(total: u32) -> PrefixPlan {
        PrefixPlan { total, skew: 0.0 }
    }

    /// The per-AS prefix counts for `as_count` ASes: deterministic,
    /// power-law-skewed by rank, each AS ≥ 1, summing to
    /// `max(self.total, as_count)`.
    ///
    /// Rank `r` (0-based AS position) gets a share ∝ `(r + 1)^-skew`;
    /// rounding residue is handed out largest-share-first so the sum is
    /// exact. With `skew = 0` this degenerates to an even split, which is
    /// how the legacy `prefixes_per_as = k` workloads are reproduced
    /// (`total = k * as_count`).
    pub fn block_sizes(&self, as_count: usize) -> Vec<u32> {
        if as_count == 0 {
            return Vec::new();
        }
        let total = self.total.max(as_count as u32);
        let weights: Vec<f64> = (0..as_count)
            .map(|r| 1.0 / ((r + 1) as f64).powf(self.skew))
            .collect();
        let wsum: f64 = weights.iter().sum();
        // Floor of the ideal share, min 1, then distribute the rounding
        // residue by largest fractional part (rank-ordered, so ties break
        // low-rank first — deterministic).
        let ideal: Vec<f64> = weights.iter().map(|w| w / wsum * total as f64).collect();
        let mut sizes: Vec<u32> = ideal.iter().map(|&x| (x.floor() as u32).max(1)).collect();
        let mut assigned: u32 = sizes.iter().sum();
        // Over-assignment can only come from the `.max(1)` floor of tail
        // ASes; shave the largest blocks back down (never below 1).
        while assigned > total {
            let i = (0..as_count)
                .max_by(|&a, &b| sizes[a].cmp(&sizes[b]))
                .expect("as_count > 0");
            if sizes[i] <= 1 {
                break;
            }
            sizes[i] -= 1;
            assigned -= 1;
        }
        if assigned < total {
            let mut order: Vec<usize> = (0..as_count).collect();
            order.sort_by(|&a, &b| {
                let fa = ideal[a] - ideal[a].floor();
                let fb = ideal[b] - ideal[b].floor();
                fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut i = 0;
            while assigned < total {
                sizes[order[i % as_count]] += 1;
                assigned += 1;
                i += 1;
            }
        }
        debug_assert_eq!(sizes.iter().sum::<u32>(), total);
        sizes
    }

    /// The contiguous CIDR block plan: for each AS (in id order) the base
    /// address of its block inside `10.0.0.0/8` and its prefix count. The
    /// per-prefix subnets are /32-spaced `base + j` addresses — the
    /// interning layer treats each as a distinct destination, and the
    /// address contiguity is what regional bursts exploit.
    pub fn blocks(&self, as_count: usize) -> Vec<PrefixBlock> {
        let sizes = self.block_sizes(as_count);
        let mut base: u32 = 0x0A00_0000; // 10.0.0.0
        sizes
            .into_iter()
            .map(|count| {
                let b = PrefixBlock { base, count };
                base = base.wrapping_add(count);
                b
            })
            .collect()
    }
}

/// One AS's contiguous address block: `count` /32-spaced destinations
/// starting at `base`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixBlock {
    /// First address of the block.
    pub base: u32,
    /// Number of destinations in the block.
    pub count: u32,
}

impl PrefixBlock {
    /// The `j`-th destination address of the block.
    pub fn addr(&self, j: u32) -> u32 {
        debug_assert!(j < self.count);
        self.base.wrapping_add(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_plan_splits_evenly() {
        let sizes = PrefixPlan::uniform(120).block_sizes(30);
        assert_eq!(sizes.len(), 30);
        assert_eq!(sizes.iter().sum::<u32>(), 120);
        assert!(sizes.iter().all(|&s| s == 4), "uniform split: {sizes:?}");
    }

    #[test]
    fn skewed_plan_is_heavy_tailed_and_exact() {
        let sizes = PrefixPlan::internet_like(10_000).block_sizes(100);
        assert_eq!(sizes.iter().sum::<u32>(), 10_000);
        assert!(sizes[0] > sizes[50], "rank 0 outweighs rank 50: {sizes:?}");
        assert!(sizes.iter().all(|&s| s >= 1), "every AS originates");
        // Zipf-1 head share: rank 0 holds ~1/H(100) ≈ 19% of the table.
        assert!(
            sizes[0] > 1_500,
            "head AS should own a large share, got {}",
            sizes[0]
        );
    }

    #[test]
    fn every_as_gets_at_least_one_even_when_total_is_small() {
        let sizes = PrefixPlan::internet_like(3).block_sizes(10);
        assert_eq!(sizes.iter().sum::<u32>(), 10, "floor lifts the total");
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn plan_is_deterministic() {
        let a = PrefixPlan::internet_like(54_321).block_sizes(977);
        let b = PrefixPlan::internet_like(54_321).block_sizes(977);
        assert_eq!(a, b);
    }

    #[test]
    fn blocks_are_contiguous_in_as_order() {
        let blocks = PrefixPlan::internet_like(1_000).blocks(40);
        assert_eq!(blocks.len(), 40);
        assert_eq!(blocks[0].base, 0x0A00_0000);
        for w in blocks.windows(2) {
            assert_eq!(
                w[1].base,
                w[0].base + w[0].count,
                "blocks must tile the space"
            );
        }
        let last = blocks.last().expect("non-empty");
        assert_eq!(last.base + last.count - blocks[0].base, 1_000);
        assert_eq!(blocks[3].addr(0), blocks[2].base + blocks[2].count);
    }
}
