//! A bounded flight recorder: the runtimes log the protocol steps they
//! execute (the collectives in [`crate::shmem`], the offload store's events
//! in `dsi-zero`) so a verifier can check the order that actually ran.

/// Fixed-capacity ring of `T`, allocated once when built; recording never
/// allocates. Once full it overwrites its oldest entry and counts the loss,
/// so a long run keeps its latest history and a checker can tell a whole
/// recording from a truncated one. `Default` has capacity zero.
#[derive(Debug, Clone)]
pub struct FlightRecorder<T> {
    buf: Vec<T>,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    /// Entries overwritten after the ring filled.
    lost: u64,
}

impl<T> Default for FlightRecorder<T> {
    fn default() -> Self {
        FlightRecorder { buf: Vec::new(), head: 0, lost: 0 }
    }
}

impl<T: Copy> FlightRecorder<T> {
    pub fn with_capacity(cap: usize) -> Self {
        FlightRecorder { buf: Vec::with_capacity(cap), head: 0, lost: 0 }
    }

    /// Append `ev`, overwriting the oldest entry when full.
    #[inline]
    pub fn record(&mut self, ev: T) {
        let len = self.buf.len();
        if len < self.buf.capacity() {
            self.buf.push(ev);
            return;
        }
        if let Some(oldest) = self.buf.get_mut(self.head) {
            *oldest = ev;
            self.head = (self.head + 1) % len;
        }
        self.lost += 1;
    }

    /// Whether anything was lost: a recording that overflowed does not
    /// start at the beginning of the run.
    pub fn overflowed(&self) -> bool {
        self.lost > 0
    }

    /// The retained entries, oldest first.
    pub fn events(&self) -> Vec<T> {
        let (new, old) = self.buf.split_at(self.head);
        old.iter().chain(new).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_entries_in_order_and_counts_the_rest() {
        let mut r = FlightRecorder::with_capacity(3);
        for i in 0..2 {
            r.record(i);
        }
        assert_eq!((r.events(), r.overflowed()), (vec![0, 1], false));
        for i in 2..7 {
            r.record(i);
        }
        assert_eq!((r.events(), r.overflowed()), (vec![4, 5, 6], true));
        let mut empty = FlightRecorder::<u8>::default();
        empty.record(1);
        assert_eq!((empty.events(), empty.overflowed()), (vec![], true));
    }
}
