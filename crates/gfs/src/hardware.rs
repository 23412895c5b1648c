//! Hardware service-time models: disk, CPU, memory (with buffer cache)
//! and network links.
//!
//! Each model is a small stateful object owned by one chunkserver; state
//! (disk head position, last-touched memory bank, cache contents) is what
//! gives the emitted traces the spatial and temporal locality that the
//! Markov models in `kooza` learn.

use std::collections::VecDeque;

use kooza_sim::SimDuration;

use crate::config::{CpuParams, DiskParams, LinkParams, MemoryParams};
use crate::master::ChunkHandle;

/// Seek-distance-aware disk model.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    params: DiskParams,
    head_lbn: u64,
}

impl DiskModel {
    /// Creates a disk with its head parked at LBN 0.
    pub fn new(params: DiskParams) -> Self {
        DiskModel { params, head_lbn: 0 }
    }

    /// Current head position.
    pub fn head_lbn(&self) -> u64 {
        self.head_lbn
    }

    /// Service time for an access at `lbn` of `size` bytes, moving the
    /// head. Sequential accesses (LBN adjacent to the head) skip the seek.
    pub fn access(&mut self, lbn: u64, size: u64) -> SimDuration {
        let distance = self.head_lbn.abs_diff(lbn);
        let blocks = size.div_ceil(512).max(1);
        let seek = if distance <= 1 {
            0.0
        } else {
            // Square-root seek curve: short seeks are much cheaper than
            // full strokes.
            let frac = (distance as f64 / self.params.total_lbns as f64).min(1.0);
            self.params.seek_base_secs + self.params.seek_full_secs * frac.sqrt()
        };
        let transfer = size as f64 / self.params.transfer_bytes_per_sec;
        self.head_lbn = lbn + blocks;
        SimDuration::from_secs_f64(seek + transfer)
    }
}

/// Per-request + per-byte CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    params: CpuParams,
}

impl CpuModel {
    /// Creates the CPU model.
    pub fn new(params: CpuParams) -> Self {
        CpuModel { params }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.params.cores
    }

    /// Busy time for a processing phase over `bytes` bytes.
    pub fn phase(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            self.params.per_request_secs + bytes as f64 * self.params.per_byte_secs,
        )
    }
}

/// Banked memory with an LRU chunk buffer cache.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    params: MemoryParams,
    last_bank: u32,
    /// LRU queue of cached chunks, most recent at the back.
    cache: VecDeque<ChunkHandle>,
}

impl MemoryModel {
    /// Creates the memory model with an empty cache.
    pub fn new(params: MemoryParams) -> Self {
        MemoryModel {
            params,
            last_bank: 0,
            cache: VecDeque::new(),
        }
    }

    /// The bank a chunk's buffers live in (static interleaving).
    pub fn bank_of(&self, chunk: ChunkHandle) -> u32 {
        (chunk.0 % self.params.banks as u64) as u32
    }

    /// Access time for `size` bytes in `bank`, updating bank state.
    pub fn access(&mut self, bank: u32, size: u64) -> SimDuration {
        let switch = if bank == self.last_bank {
            0.0
        } else {
            self.params.bank_switch_secs
        };
        self.last_bank = bank;
        SimDuration::from_secs_f64(switch + size as f64 / self.params.bandwidth_bytes_per_sec)
    }

    /// Buffer-cache lookup: returns whether `chunk` was cached, and makes
    /// it most-recently-used (inserting it if absent, evicting LRU).
    pub fn cache_access(&mut self, chunk: ChunkHandle) -> bool {
        let hit = if let Some(pos) = self.cache.iter().position(|&c| c == chunk) {
            self.cache.remove(pos);
            true
        } else {
            false
        };
        self.cache.push_back(chunk);
        while self.cache.len() > self.params.cache_chunks.max(1) {
            self.cache.pop_front();
        }
        hit
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.params.banks
    }
}

/// A latency + bandwidth network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    params: LinkParams,
}

impl LinkModel {
    /// Creates the link model.
    pub fn new(params: LinkParams) -> Self {
        LinkModel { params }
    }

    /// Time to move `size` bytes across the link.
    pub fn transfer(&self, size: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            self.params.latency_secs + size as f64 / self.params.bandwidth_bytes_per_sec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_sequential_is_cheaper_than_random() {
        let mut d = DiskModel::new(DiskParams::default());
        let first = d.access(1_000_000, 65536);
        // Head now just past 1_000_000; adjacent access is sequential.
        let sequential = d.access(d.head_lbn(), 65536);
        let random = d.access(500_000_000, 65536);
        assert!(sequential < first, "sequential {sequential} first {first}");
        assert!(random > sequential * 2, "random {random} sequential {sequential}");
    }

    #[test]
    fn disk_transfer_scales_with_size() {
        let mut d = DiskModel::new(DiskParams::default());
        let small = d.access(d.head_lbn(), 64 * 1024);
        let large = d.access(d.head_lbn(), 4 * 1024 * 1024);
        // 4 MB at 100 MB/s = 40 ms dominates.
        assert!(large.as_secs_f64() > 0.039, "large {large}");
        assert!(small.as_secs_f64() < 0.002, "small {small}");
    }

    #[test]
    fn disk_longer_seeks_cost_more() {
        let params = DiskParams::default();
        let mut near = DiskModel::new(params);
        let mut far = DiskModel::new(params);
        let t_near = near.access(10_000, 4096);
        let t_far = far.access(1_900_000_000, 4096);
        assert!(t_far > t_near);
    }

    #[test]
    fn cpu_phase_costs() {
        let cpu = CpuModel::new(CpuParams::default());
        let empty = cpu.phase(0);
        assert!((empty.as_secs_f64() - 20e-6).abs() < 1e-12);
        let meg = cpu.phase(1_000_000);
        assert!((meg.as_secs_f64() - (20e-6 + 1e-3)).abs() < 1e-9);
        assert_eq!(cpu.cores(), 4);
    }

    #[test]
    fn memory_bank_switch_penalty() {
        let mut m = MemoryModel::new(MemoryParams::default());
        let same = m.access(0, 4096);
        let switch = m.access(1, 4096);
        assert!(switch > same);
        let back_to_back = m.access(1, 4096);
        assert_eq!(back_to_back, same);
    }

    #[test]
    fn memory_bank_mapping_stable() {
        let m = MemoryModel::new(MemoryParams::default());
        let c = ChunkHandle(13);
        assert_eq!(m.bank_of(c), m.bank_of(c));
        assert!(m.bank_of(c) < m.banks());
    }

    #[test]
    fn cache_lru_behaviour() {
        let params = MemoryParams { cache_chunks: 2, ..MemoryParams::default() };
        let mut m = MemoryModel::new(params);
        assert!(!m.cache_access(ChunkHandle(1))); // miss, cached
        assert!(!m.cache_access(ChunkHandle(2))); // miss, cached
        assert!(m.cache_access(ChunkHandle(1))); // hit, 1 is MRU
        assert!(!m.cache_access(ChunkHandle(3))); // miss, evicts 2
        assert!(!m.cache_access(ChunkHandle(2))); // miss (was evicted)
        assert!(m.cache_access(ChunkHandle(2))); // hit
    }

    #[test]
    fn link_latency_floor_and_bandwidth() {
        let l = LinkModel::new(LinkParams::default());
        let tiny = l.transfer(1);
        assert!(tiny.as_secs_f64() >= 100e-6);
        let mb = l.transfer(125_000_000);
        assert!((mb.as_secs_f64() - 1.0001).abs() < 0.001, "1s transfer {mb}");
    }
}
