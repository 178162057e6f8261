//! Banked DDR4-style DRAM timing model.
//!
//! A deliberately Ramulator-shaped substitute: per-bank open-row state,
//! row-hit/row-miss/row-conflict latencies, a bounded memory queue
//! (Table 1: 64 entries), a shared data bus, and FR-FCFS-like scheduling
//! (row hits first, then oldest). Latencies are expressed in core cycles
//! at the paper's 3.2 GHz.

/// Timing and geometry for `Dram`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: usize,
    /// log2 of the row size in bytes (8 KB rows → 13).
    pub row_log2: u32,
    /// Column access latency (tCAS) in core cycles.
    pub t_cas: u64,
    /// Row activate latency (tRCD) in core cycles.
    pub t_rcd: u64,
    /// Precharge latency (tRP) in core cycles.
    pub t_rp: u64,
    /// Data-bus occupancy per transfer in core cycles.
    pub(crate) t_bus: u64,
    /// Memory queue capacity (Table 1: 64).
    pub queue_capacity: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        // DDR4-2400 timings (~14 ns each for CAS/RCD/RP) at 3.2 GHz.
        DramConfig {
            banks: 16,
            row_log2: 13,
            t_cas: 45,
            t_rcd: 45,
            t_rp: 45,
            t_bus: 4,
            queue_capacity: 64,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

#[derive(Clone, Copy, Debug)]
struct DramReq {
    id: u64,
    addr: u64,
    arrival: u64,
    is_write: bool,
}

/// Row-buffer outcome counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DramStats {
    /// Accesses hitting the open row.
    pub(crate) row_hits: u64,
    /// Accesses to a closed bank.
    pub(crate) row_misses: u64,
    /// Accesses conflicting with a different open row.
    pub(crate) row_conflicts: u64,
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
}
crate::counters!(DramStats {
    row_hits,
    row_misses,
    row_conflicts,
    reads,
    writes
});

/// A completed DRAM read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DramResp {
    /// The id supplied at enqueue.
    pub(crate) id: u64,
    /// Cycle the data is available.
    pub(crate) finished: u64,
}

/// The DRAM device + controller model.
#[derive(Clone, Debug)]
pub(crate) struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    queue: Vec<DramReq>,
    /// In-service requests: (completion cycle, id, is_write).
    in_service: Vec<(u64, u64, bool)>,
    bus_free_at: u64,
    stats: DramStats,
}

impl Dram {
    /// Builds a DRAM model from `cfg`.
    #[must_use]
    pub(crate) fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks.is_power_of_two(), "bank count must be 2^k");
        Dram {
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0
                };
                cfg.banks
            ],
            queue: Vec::new(),
            in_service: Vec::new(),
            bus_free_at: 0,
            stats: cfg_stats(),
            cfg,
        }
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row_addr = addr >> self.cfg.row_log2;
        let bank = (row_addr as usize) & (self.cfg.banks - 1);
        let row = row_addr >> self.cfg.banks.trailing_zeros();
        (bank, row)
    }

    /// Whether the memory queue can accept another request.
    #[must_use]
    pub(crate) fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    /// Enqueues a request. Returns `false` (rejecting it) if the queue is
    /// full.
    pub(crate) fn enqueue(&mut self, id: u64, addr: u64, is_write: bool, now: u64) -> bool {
        if !self.can_accept() {
            return false;
        }
        self.queue.push(DramReq {
            id,
            addr,
            arrival: now,
            is_write,
        });
        true
    }

    /// Advances the controller one cycle, writing reads whose data is now
    /// available into `done` (cleared first), so the per-cycle caller never
    /// allocates.
    pub(crate) fn tick_into(&mut self, now: u64, done: &mut Vec<DramResp>) {
        done.clear();
        // Schedule: FR-FCFS — among requests whose bank is free, prefer
        // open-row hits, then oldest arrival.
        loop {
            let mut best: Option<(usize, bool)> = None; // (queue idx, row hit)
            for (i, r) in self.queue.iter().enumerate() {
                let (b, row) = self.bank_and_row(r.addr);
                if self.banks[b].busy_until > now {
                    continue;
                }
                let hit = self.banks[b].open_row == Some(row);
                match best {
                    None => best = Some((i, hit)),
                    Some((bi, bhit)) => {
                        let better =
                            (hit && !bhit) || (hit == bhit && r.arrival < self.queue[bi].arrival);
                        if better {
                            best = Some((i, hit));
                        }
                    }
                }
            }
            let Some((idx, _)) = best else { break };
            let req = self.queue.swap_remove(idx);
            let (b, row) = self.bank_and_row(req.addr);
            let bank = &mut self.banks[b];
            let access = match bank.open_row {
                Some(r) if r == row => {
                    self.stats.row_hits += 1;
                    self.cfg.t_cas
                }
                Some(_) => {
                    self.stats.row_conflicts += 1;
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
                }
                None => {
                    self.stats.row_misses += 1;
                    self.cfg.t_rcd + self.cfg.t_cas
                }
            };
            bank.open_row = Some(row);
            let data_at = now + access;
            // Serialize transfers on the shared data bus.
            let bus_start = self.bus_free_at.max(data_at);
            self.bus_free_at = bus_start + self.cfg.t_bus;
            bank.busy_until = data_at;
            if req.is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
                self.in_service
                    .push((bus_start + self.cfg.t_bus, req.id, false));
            }
        }

        self.in_service.retain(|&(finish, id, _)| {
            if finish <= now {
                done.push(DramResp { id, finished: now });
                false
            } else {
                true
            }
        });
    }

    /// Row-buffer statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> DramStats {
        self.stats
    }

    /// Outstanding requests (queued + in flight).
    #[must_use]
    pub(crate) fn outstanding(&self) -> usize {
        self.queue.len() + self.in_service.len()
    }
}

fn cfg_stats() -> DramStats {
    DramStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until(d: &mut Dram, id: u64, limit: u64) -> u64 {
        let mut done = Vec::new();
        for now in 0..limit {
            d.tick_into(now, &mut done);
            if done.iter().any(|r| r.id == id) {
                return now;
            }
        }
        panic!("request {id} never completed within {limit} cycles");
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = Dram::new(DramConfig::default());
        assert!(d.enqueue(1, 0x10000, false, 0));
        let t = run_until(&mut d, 1, 1000);
        let cfg = DramConfig::default();
        assert!(t >= cfg.t_rcd + cfg.t_cas, "completed too fast: {t}");
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn same_row_hits_are_faster() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        d.enqueue(1, 0x10000, false, 0);
        let t1 = run_until(&mut d, 1, 1000);
        d.enqueue(2, 0x10040, false, t1);
        let t2 = run_until(&mut d, 2, t1 + 1000) - t1;
        assert!(t2 < t1, "row hit {t2} not faster than miss {t1}");
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        d.enqueue(1, 0, false, 0);
        let t1 = run_until(&mut d, 1, 1000);
        // Same bank (bank bits above row offset): add banks*rowsize.
        let conflict_addr = (cfg.banks as u64) << cfg.row_log2;
        d.enqueue(2, conflict_addr, false, t1);
        let t2 = run_until(&mut d, 2, t1 + 1000) - t1;
        assert!(t2 > cfg.t_rp, "conflict should pay precharge: {t2}");
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn parallel_banks_overlap() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Two requests to different banks enqueue at cycle 0.
        d.enqueue(1, 0, false, 0);
        d.enqueue(2, 1 << cfg.row_log2, false, 0);
        let mut finished = vec![];
        let mut done = Vec::new();
        for now in 0..2000 {
            d.tick_into(now, &mut done);
            for r in &done {
                finished.push((r.id, now));
            }
            if finished.len() == 2 {
                break;
            }
        }
        assert_eq!(finished.len(), 2);
        let spread = finished[1].1 - finished[0].1;
        assert!(
            spread <= cfg.t_bus + 1,
            "bank-parallel requests should finish near-together, spread {spread}"
        );
    }

    #[test]
    fn queue_capacity_respected() {
        let mut d = Dram::new(DramConfig {
            queue_capacity: 2,
            ..DramConfig::default()
        });
        assert!(d.enqueue(1, 0, false, 0));
        assert!(d.enqueue(2, 64, false, 0));
        assert!(!d.enqueue(3, 128, false, 0));
    }

    #[test]
    fn writes_consume_bandwidth_but_do_not_respond() {
        let mut d = Dram::new(DramConfig::default());
        d.enqueue(1, 0, true, 0);
        let mut done = Vec::new();
        for now in 0..500 {
            d.tick_into(now, &mut done);
            assert!(done.is_empty());
        }
        assert_eq!(d.stats().writes, 1);
    }
}
