//! Stream prefetcher: 64 streams, fixed distance, prefetch into the L2
//! (Table 1: "Stream: 64 Streams, Distance 16. Prefetch into LLC").

use crate::LINE_BYTES;

/// Maximum concurrently tracked streams.
const STREAMS: usize = 64;
/// Prefetch distance in lines.
const DISTANCE: u64 = 16;
/// Accesses within this many lines of a stream head extend the stream.
const WINDOW: u64 = 4;
/// Misses needed to confirm a stream before prefetching starts.
const TRAIN_THRESHOLD: u32 = 2;

#[derive(Clone, Copy, Debug)]
struct Stream {
    last_line: u64,
    next_prefetch: u64,
    direction: i64,
    confidence: u32,
    lru: u64,
}

/// A classic unit-stride stream prefetcher trained on L1 misses.
#[derive(Clone, Debug)]
pub(crate) struct StreamPrefetcher {
    streams: Vec<Stream>,
    tick: u64,
}

impl StreamPrefetcher {
    /// Builds a prefetcher that tracks no stream yet.
    #[must_use]
    pub(crate) fn new() -> Self {
        StreamPrefetcher {
            streams: Vec::new(),
            tick: 0,
        }
    }

    /// Trains on a demand miss at byte address `addr`; returns the byte
    /// addresses of lines to prefetch (possibly empty).
    pub(crate) fn train(&mut self, addr: u64) -> Vec<u64> {
        self.tick += 1;
        let line = addr / LINE_BYTES;
        // Extend an existing stream?
        if let Some(s) = self.streams.iter_mut().find(|s| {
            let d = line as i64 - s.last_line as i64;
            d != 0 && d.signum() == s.direction && d.unsigned_abs() <= WINDOW
        }) {
            s.last_line = line;
            s.confidence += 1;
            s.lru = self.tick;
            if s.confidence >= TRAIN_THRESHOLD {
                let mut out = Vec::new();
                let target = line as i64 + s.direction * DISTANCE as i64;
                // Jump-start a newly confirmed stream so the prefetch head
                // is ahead of the demand stream, not trailing it.
                let behind = (s.next_prefetch as i64 - line as i64).signum() != s.direction;
                if behind {
                    s.next_prefetch = (line as i64 + s.direction * (DISTANCE as i64 - 2)) as u64;
                }
                // Issue up to 2 prefetches per training event, walking the
                // prefetch head toward (and not past) the target.
                while (target - s.next_prefetch as i64) * s.direction > 0 && out.len() < 2 {
                    s.next_prefetch = (s.next_prefetch as i64 + s.direction) as u64;
                    out.push(s.next_prefetch * LINE_BYTES);
                }
                return out;
            }
            return Vec::new();
        }
        // Allocate a new candidate stream (direction guessed on the second
        // access; start with +1 and fix on the first extension attempt).
        for dir in [1i64, -1] {
            // Try to pair with a one-behind stream of unknown direction.
            if let Some(s) = self
                .streams
                .iter_mut()
                .find(|s| s.confidence == 0 && (line as i64 - s.last_line as i64) == dir)
            {
                s.direction = dir;
                s.last_line = line;
                s.confidence = 1;
                s.next_prefetch = line;
                s.lru = self.tick;
                return Vec::new();
            }
        }
        let candidate = Stream {
            last_line: line,
            next_prefetch: line,
            direction: 1,
            confidence: 0,
            lru: self.tick,
        };
        if self.streams.len() < STREAMS {
            self.streams.push(candidate);
        } else if let Some(victim) = self.streams.iter_mut().min_by_key(|s| s.lru) {
            *victim = candidate;
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_misses_trigger_prefetches() {
        let mut p = StreamPrefetcher::new();
        let mut count = 0;
        for i in 0..20u64 {
            let demand = 0x10000 + i * LINE_BYTES;
            for pf in p.train(demand) {
                // Every prefetch is ahead of the demand stream at issue
                // time, by at most `DISTANCE`.
                assert!(pf > demand, "prefetch {pf:#x} behind demand {demand:#x}");
                assert!(pf <= demand + DISTANCE * LINE_BYTES);
                count += 1;
            }
        }
        assert!(count > 0, "stream never confirmed");
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = StreamPrefetcher::new();
        let mut count = 0;
        for i in (0..20u64).rev() {
            let demand = 0x40000 + i * LINE_BYTES;
            for pf in p.train(demand) {
                assert!(pf < demand, "prefetch {pf:#x} not below demand {demand:#x}");
                count += 1;
            }
        }
        assert!(count > 0);
    }

    #[test]
    fn random_misses_do_not_prefetch() {
        let mut p = StreamPrefetcher::new();
        let mut x: u64 = 42;
        let mut total = 0;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            total += p.train((x % (1 << 30)) & !(LINE_BYTES - 1)).len();
        }
        assert!(total <= 4, "random pattern should barely prefetch: {total}");
    }

    #[test]
    fn stream_table_capacity_bounded() {
        let mut p = StreamPrefetcher::new();
        for i in 0..2 * STREAMS as u64 {
            let _ = p.train(i * 0x100000);
        }
        assert_eq!(p.streams.len(), STREAMS);
    }
}
