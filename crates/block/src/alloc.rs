//! Extent-based sector allocation: a free list kept as sorted,
//! coalesced runs, handing out contiguous extents.
//!
//! Keeping the free list as `start → length` runs lets an allocation take
//! a single contiguous extent whenever one is big enough, and frees
//! coalesce with both neighbors so churn rebuilds big runs instead of
//! fragmenting forever. The [`crate::SpillTier`] carves every extent it
//! hands out from one.

use std::collections::BTreeMap;

/// A sector allocator over an unbounded device: sorted free runs plus a
/// high-water mark for never-allocated space.
#[derive(Debug, Default)]
pub struct ExtentAllocator {
    /// Free runs, `start → length`, non-adjacent (adjacent runs coalesce
    /// on free) and non-overlapping.
    free: BTreeMap<u64, u64>,
    /// First never-allocated sector.
    next: u64,
}

impl ExtentAllocator {
    /// An allocator with nothing allocated and nothing free.
    pub fn new() -> Self {
        Self::default()
    }

    /// The high-water mark: sectors at and past this were never handed
    /// out, so the device never grew beyond it.
    pub fn next_sector(&self) -> u64 {
        self.next
    }

    /// The free runs, ascending, as `(start, len)` pairs (tests assert
    /// allocation picked the run it should have).
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        self.free.iter().map(|(&s, &l)| (s, l)).collect()
    }

    /// Allocates a single contiguous run of `n` sectors and returns its
    /// first sector — for payloads that must be addressable by one
    /// `(start, len)` pair. Falls back to fresh high-water space when no
    /// free run is big enough.
    pub fn alloc_contiguous(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty extents have no address");
        if let Some((&start, &len)) = self.free.iter().find(|(_, &len)| len >= n) {
            self.take_prefix(start, len, n);
            return start;
        }
        let start = self.next;
        self.next += n;
        start
    }

    fn take_prefix(&mut self, start: u64, len: u64, take: u64) {
        self.free.remove(&start);
        if take < len {
            self.free.insert(start + take, len - take);
        }
    }

    /// Returns a run of sectors to the free list, coalescing with both
    /// neighbors.
    pub fn free_run(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let (mut start, mut len) = (start, len);
        if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
            debug_assert!(ps + pl <= start, "double free of sector {start}");
            if ps + pl == start {
                self.free.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        if let Some((&ss, _)) = self.free.range(start + len..).next() {
            if start + len == ss {
                let sl = self.free.remove(&ss).unwrap();
                len += sl;
            }
        }
        self.free.insert(start, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocations_are_sequential() {
        let mut a = ExtentAllocator::new();
        assert_eq!(a.alloc_contiguous(3), 0);
        assert_eq!(a.alloc_contiguous(2), 3);
        assert_eq!(a.next_sector(), 5);
    }

    #[test]
    fn free_runs_coalesce_and_serve_contiguous_extents() {
        let mut a = ExtentAllocator::new();
        a.alloc_contiguous(6);
        // Free 1, 4, then 2 and 3: the middle frees must merge into one
        // run 1..5.
        for s in [1, 4, 2, 3] {
            a.free_run(s, 1);
        }
        assert_eq!(a.free_runs(), vec![(1, 4)]);
        // A 3-sector allocation takes the run's prefix and leaves the
        // tail free.
        assert_eq!(a.alloc_contiguous(3), 1);
        assert_eq!(a.free_runs(), vec![(4, 1)]);
        assert_eq!(a.next_sector(), 6, "reuse must not grow the device");
    }

    #[test]
    fn contiguous_allocation_never_fragments() {
        let mut a = ExtentAllocator::new();
        a.alloc_contiguous(4);
        a.free_run(1, 2);
        // Needs 3 contiguous: the 2-run can't serve it, so fresh space.
        assert_eq!(a.alloc_contiguous(3), 4);
        // The 2-run is still intact for a smaller request.
        assert_eq!(a.alloc_contiguous(2), 1);
        assert!(a.free_runs().is_empty());
    }
}
