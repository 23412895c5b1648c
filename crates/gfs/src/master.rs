//! The GFS master: chunk metadata and placement.
//!
//! The real master owns the filesystem namespace, chunk leases and
//! re-replication; for workload modeling what matters is *placement* —
//! which chunkservers hold which chunk, with what replication — because
//! that determines which servers a request touches.

use kooza_sim::rng::Rng64;

use crate::{GfsError, Result};

/// Identifier of a 64 MB GFS chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkHandle(pub u64);

/// Blocks (512 B LBNs) per 64 MB chunk.
pub const LBNS_PER_CHUNK: u64 = 64 * 1024 * 1024 / 512;

/// The master's metadata: chunk → replica placements.
#[derive(Debug, Clone, PartialEq)]
pub struct Master {
    n_servers: usize,
    replication: usize,
    /// `placements[chunk][r]` = server index of replica `r`.
    placements: Vec<Vec<usize>>,
    /// Per-server count of primary replicas (load-balance bookkeeping).
    primaries: Vec<u64>,
}

impl Master {
    /// Creates a master placing `n_chunks` chunks across `n_servers`
    /// servers with the given replication, spreading load round-robin with
    /// a random rotation per chunk (deterministic under the seed).
    ///
    /// # Errors
    ///
    /// Returns [`GfsError::InvalidConfig`] if `replication` is 0 or exceeds
    /// `n_servers`, or if either count is 0.
    pub fn place(
        n_chunks: u64,
        n_servers: usize,
        replication: usize,
        rng: &mut Rng64,
    ) -> Result<Self> {
        if n_servers == 0 {
            return Err(GfsError::InvalidConfig {
                field: "n_servers",
                detail: "must be at least 1".into(),
            });
        }
        if replication == 0 || replication > n_servers {
            return Err(GfsError::InvalidConfig {
                field: "replication",
                detail: format!("must be in 1..={n_servers}"),
            });
        }
        if n_chunks == 0 {
            return Err(GfsError::InvalidConfig {
                field: "n_chunks",
                detail: "must be at least 1".into(),
            });
        }
        let mut placements = Vec::with_capacity(n_chunks as usize);
        let mut primaries = vec![0u64; n_servers];
        for _ in 0..n_chunks {
            let start = rng.next_bounded(n_servers as u64) as usize;
            let replicas: Vec<usize> =
                (0..replication).map(|r| (start + r) % n_servers).collect();
            primaries[replicas[0]] += 1;
            placements.push(replicas);
        }
        Ok(Master {
            n_servers,
            replication,
            placements,
            primaries,
        })
    }

    /// Creates a master with *group-aligned* placement for sharded runs:
    /// servers are split into `groups` contiguous ranges (see
    /// [`kooza_sim::shard_ranges`]), chunk `c` lives entirely inside group
    /// `c % groups`, and its replicas rotate within that group from a
    /// per-group [`Rng64::for_stream`] draw. Every replica set (and thus
    /// every write fanout and re-replication) stays inside one group, so
    /// a shard owning that group never needs another shard's disks.
    ///
    /// With `groups == 1` the layout differs from [`Master::place`] only
    /// in drawing from stream 0 of `seed` instead of a caller RNG.
    ///
    /// # Errors
    ///
    /// Returns [`GfsError::InvalidConfig`] on zero counts, or when the
    /// smallest group cannot hold a full replica set
    /// (`n_servers / groups < replication`).
    pub fn place_grouped(
        n_chunks: u64,
        n_servers: usize,
        replication: usize,
        groups: usize,
        seed: u64,
    ) -> Result<Self> {
        if n_servers == 0 || n_chunks == 0 || replication == 0 {
            return Err(GfsError::InvalidConfig {
                field: "placement",
                detail: "chunk, server and replication counts must be at least 1".into(),
            });
        }
        if groups == 0 || n_servers / groups < replication {
            return Err(GfsError::InvalidConfig {
                field: "groups",
                detail: format!(
                    "{groups} group(s) over {n_servers} servers cannot each hold \
                     {replication} replicas"
                ),
            });
        }
        let ranges = kooza_sim::shard_ranges(n_servers, groups);
        let mut rngs: Vec<Rng64> =
            (0..groups).map(|g| Rng64::for_stream(seed, g as u64)).collect();
        let mut placements = Vec::with_capacity(n_chunks as usize);
        let mut primaries = vec![0u64; n_servers];
        for c in 0..n_chunks {
            let g = (c % groups as u64) as usize;
            let range = &ranges[g];
            let len = range.len();
            let off = rngs[g].next_bounded(len as u64) as usize;
            let replicas: Vec<usize> =
                (0..replication).map(|r| range.start + (off + r) % len).collect();
            primaries[replicas[0]] += 1;
            placements.push(replicas);
        }
        Ok(Master {
            n_servers,
            replication,
            placements,
            primaries,
        })
    }

    /// Number of chunks tracked.
    pub fn n_chunks(&self) -> u64 {
        self.placements.len() as u64
    }

    /// Number of chunkservers.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The primary replica's server for a chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is out of range.
    pub fn primary(&self, chunk: ChunkHandle) -> usize {
        self.placements[chunk.0 as usize][0]
    }

    /// All replica servers for a chunk (primary first).
    ///
    /// # Panics
    ///
    /// Panics if the chunk is out of range.
    pub fn replicas(&self, chunk: ChunkHandle) -> &[usize] {
        &self.placements[chunk.0 as usize]
    }

    /// A read can be served by any replica; pick one uniformly.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is out of range.
    pub fn read_target(&self, chunk: ChunkHandle, rng: &mut Rng64) -> usize {
        *rng.choose(self.replicas(chunk))
    }

    /// Chunks with a replica on `server`, in ascending chunk order — the
    /// re-replication worklist after that server crashes.
    pub fn chunks_on(&self, server: usize) -> Vec<ChunkHandle> {
        self.placements
            .iter()
            .enumerate()
            .filter(|(_, reps)| reps.contains(&server))
            .map(|(c, _)| ChunkHandle(c as u64))
            .collect()
    }

    /// Re-replication commit: replaces replica `old` with server `new` in
    /// a chunk's placement, keeping the primary bookkeeping consistent.
    /// A no-op if `old` no longer holds the chunk or `new` already does
    /// (a concurrent re-replication won the race).
    ///
    /// # Panics
    ///
    /// Panics if the chunk or either server index is out of range.
    pub fn replace_replica(&mut self, chunk: ChunkHandle, old: usize, new: usize) {
        assert!(old < self.n_servers && new < self.n_servers, "server out of range");
        let reps = &mut self.placements[chunk.0 as usize];
        if reps.contains(&new) {
            return;
        }
        if let Some(pos) = reps.iter().position(|&s| s == old) {
            reps[pos] = new;
            if pos == 0 {
                self.primaries[old] -= 1;
                self.primaries[new] += 1;
            }
        }
    }

    /// The first LBN of a chunk on its server's disk.
    pub fn chunk_base_lbn(&self, chunk: ChunkHandle) -> u64 {
        // Chunks are laid out contiguously per server in placement order;
        // a chunk's slot index within its server gives its disk offset.
        // For modeling purposes a deterministic hash-spread layout is
        // equally valid and much cheaper:
        (chunk.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 30_000) * LBNS_PER_CHUNK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_respects_replication() {
        let mut rng = Rng64::new(1700);
        let m = Master::place(100, 5, 3, &mut rng).unwrap();
        for c in 0..100 {
            let reps = m.replicas(ChunkHandle(c));
            assert_eq!(reps.len(), 3);
            // Distinct servers.
            let mut sorted = reps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replica servers: {reps:?}");
            for &s in reps {
                assert!(s < 5);
            }
        }
    }

    #[test]
    fn placement_is_roughly_balanced() {
        let mut rng = Rng64::new(1701);
        let m = Master::place(10_000, 8, 3, &mut rng).unwrap();
        // Max/mean primaries per server (1 = perfect).
        let max = *m.primaries.iter().max().unwrap() as f64;
        let mean = m.primaries.iter().sum::<u64>() as f64 / m.primaries.len() as f64;
        assert!(max / mean < 1.15, "imbalance {}", max / mean);
    }

    #[test]
    fn read_target_is_a_replica() {
        let mut rng = Rng64::new(1702);
        let m = Master::place(50, 4, 2, &mut rng).unwrap();
        for c in 0..50 {
            let chunk = ChunkHandle(c);
            let t = m.read_target(chunk, &mut rng);
            assert!(m.replicas(chunk).contains(&t));
        }
    }

    #[test]
    fn single_server_placement() {
        let mut rng = Rng64::new(1703);
        let m = Master::place(10, 1, 1, &mut rng).unwrap();
        for c in 0..10 {
            assert_eq!(m.primary(ChunkHandle(c)), 0);
        }
    }

    #[test]
    fn chunk_lbns_are_distinct_and_chunk_aligned() {
        let mut rng = Rng64::new(1704);
        let m = Master::place(100, 2, 1, &mut rng).unwrap();
        let mut bases: Vec<u64> = (0..100).map(|c| m.chunk_base_lbn(ChunkHandle(c))).collect();
        for &b in &bases {
            assert_eq!(b % LBNS_PER_CHUNK, 0);
        }
        bases.sort_unstable();
        bases.dedup();
        assert!(bases.len() > 90, "too many LBN collisions: {}", bases.len());
    }

    #[test]
    fn chunks_on_lists_every_replica_holder() {
        let mut rng = Rng64::new(1706);
        let m = Master::place(200, 5, 3, &mut rng).unwrap();
        for s in 0..5 {
            let chunks = m.chunks_on(s);
            assert!(chunks.windows(2).all(|w| w[0] < w[1]), "not ascending");
            for &c in &chunks {
                assert!(m.replicas(c).contains(&s));
            }
        }
        let total: usize = (0..5).map(|s| m.chunks_on(s).len()).sum();
        assert_eq!(total, 200 * 3, "every replica appears exactly once");
    }

    #[test]
    fn replace_replica_moves_placement() {
        let mut rng = Rng64::new(1707);
        let mut m = Master::place(10, 4, 2, &mut rng).unwrap();
        let chunk = ChunkHandle(0);
        let old = m.replicas(chunk)[1];
        let new = (0..4).find(|s| !m.replicas(chunk).contains(s)).unwrap();
        m.replace_replica(chunk, old, new);
        assert!(!m.replicas(chunk).contains(&old));
        assert!(m.replicas(chunk).contains(&new));
        // Repeating the same move is a no-op (old is gone).
        let before = m.clone();
        m.replace_replica(chunk, old, new);
        assert_eq!(m, before);
        // Replacing the primary updates the primary bookkeeping.
        let primary = m.primary(chunk);
        let target = (0..4).find(|s| !m.replicas(chunk).contains(s)).unwrap();
        m.replace_replica(chunk, primary, target);
        assert_eq!(m.primary(chunk), target);
    }

    #[test]
    fn grouped_placement_confines_replicas_to_their_group() {
        let m = Master::place_grouped(1000, 13, 3, 4, 99).unwrap();
        let ranges = kooza_sim::shard_ranges(13, 4);
        for c in 0..1000u64 {
            let reps = m.replicas(ChunkHandle(c));
            assert_eq!(reps.len(), 3);
            let g = (c % 4) as usize;
            for &s in reps {
                assert!(
                    ranges[g].contains(&s),
                    "chunk {c} (group {g}) replica {s} outside {:?}",
                    ranges[g]
                );
            }
            let mut sorted = reps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replicas: {reps:?}");
        }
        // Deterministic under the seed.
        let again = Master::place_grouped(1000, 13, 3, 4, 99).unwrap();
        assert_eq!(m, again);
        assert_ne!(m, Master::place_grouped(1000, 13, 3, 4, 100).unwrap());
    }

    #[test]
    fn grouped_placement_rejects_undersized_groups() {
        // 8 servers in 4 groups of 2 cannot hold 3 replicas per chunk.
        assert!(Master::place_grouped(10, 8, 3, 4, 1).is_err());
        assert!(Master::place_grouped(10, 8, 3, 0, 1).is_err());
        assert!(Master::place_grouped(0, 8, 3, 2, 1).is_err());
        assert!(Master::place_grouped(10, 12, 3, 4, 1).is_ok());
    }

    #[test]
    fn invalid_placements_rejected() {
        let mut rng = Rng64::new(1705);
        assert!(Master::place(10, 0, 1, &mut rng).is_err());
        assert!(Master::place(10, 2, 3, &mut rng).is_err());
        assert!(Master::place(10, 2, 0, &mut rng).is_err());
        assert!(Master::place(0, 2, 1, &mut rng).is_err());
    }
}
