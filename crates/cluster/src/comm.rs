//! A real message-passing communicator over threads.
//!
//! The paper ran MPI (via PETSc) across workstations; our executable
//! equivalent runs each rank on a thread and passes messages through
//! crossbeam channels. The figure benchmarks use the deterministic cost
//! model in [`crate::sim`] (the host has no 20-CPU SMP), but this layer
//! lets the distributed algorithms be *executed and verified* with real
//! concurrency, not just priced.

use crossbeam::channel::{unbounded, Receiver, Sender};

/// A tagged point-to-point message of `f64` payload.
struct Message {
    from: usize,
    tag: u64,
    data: Vec<f64>,
}

/// Per-rank endpoint of a thread communicator.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Out-of-order messages parked until a matching recv.
    parked: Vec<Message>,
}

impl Comm {
    /// This rank's index in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `data` to `dest` with a `tag`. Never blocks (unbounded
    /// channels).
    pub fn send(&self, dest: usize, tag: u64, data: Vec<f64>) {
        assert!(dest < self.size, "dest {dest} out of range");
        self.senders[dest]
            .send(Message { from: self.rank, tag, data })
            .expect("receiver dropped");
    }

    /// Blocking receive of the next message from `src` with `tag`.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        // Check parked messages first.
        if let Some(pos) = self.parked.iter().position(|m| m.from == src && m.tag == tag) {
            return self.parked.remove(pos).data;
        }
        loop {
            let msg = self.receiver.recv().expect("all senders dropped");
            if msg.from == src && msg.tag == tag {
                return msg.data;
            }
            self.parked.push(msg);
        }
    }

    /// Sum-allreduce: every rank contributes `local` and receives the
    /// global element-wise sum. Binomial-tree reduce to rank 0 followed by
    /// a broadcast — the same communication pattern the cost model prices.
    /// Every rank receives rank 0's total, so the result is the same bits
    /// on every rank.
    pub fn allreduce_sum(&mut self, local: &[f64]) -> Vec<f64> {
        let mut acc = local.to_vec();
        let p = self.size;
        if p == 1 {
            return acc;
        }
        // Reduce: at stage s, ranks with (rank % 2^{s+1}) == 2^s send to
        // rank - 2^s.
        let mut stride = 1usize;
        while stride < p {
            let group = stride * 2;
            if self.rank % group == stride {
                let dest = self.rank - stride;
                self.send(dest, TAG_REDUCE + stride as u64, acc.clone());
            } else if self.rank.is_multiple_of(group) && self.rank + stride < p {
                let data = self.recv(self.rank + stride, TAG_REDUCE + stride as u64);
                for (a, d) in acc.iter_mut().zip(&data) {
                    *a += d;
                }
            }
            stride *= 2;
        }
        // Broadcast from rank 0, reversing the tree.
        let mut stride = 1usize;
        while stride * 2 < p {
            stride *= 2;
        }
        while stride >= 1 {
            let group = stride * 2;
            if self.rank.is_multiple_of(group) && self.rank + stride < p {
                self.send(self.rank + stride, TAG_BCAST + stride as u64, acc.clone());
            } else if self.rank % group == stride {
                acc = self.recv(self.rank - stride, TAG_BCAST + stride as u64);
            }
            if stride == 1 {
                break;
            }
            stride /= 2;
        }
        acc
    }
}

const TAG_REDUCE: u64 = 1 << 32;
const TAG_BCAST: u64 = 2 << 32;

/// Run `f` on `nranks` rank threads, each given its own [`Comm`]; returns
/// the per-rank results in rank order.
pub fn run_ranks<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(nranks >= 1);
    let mut senders = Vec::with_capacity(nranks);
    let mut receivers = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let mut comms: Vec<Comm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| Comm {
            rank,
            size: nranks,
            senders: senders.clone(),
            receiver,
            parked: Vec::new(),
        })
        .collect();
    drop(senders);

    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter_mut()
            .map(|comm| {
                let f = &f;
                scope.spawn(move || f(comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0, 2.0, 3.0]);
                comm.recv(1, 8)
            } else {
                let got = comm.recv(0, 7);
                comm.send(0, 8, got.iter().map(|v| v * 10.0).collect());
                vec![]
            }
        });
        assert_eq!(results[0], vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
                comm.send(1, 2, vec![2.0]);
                vec![]
            } else {
                // Receive in reverse order of sending.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let results = run_ranks(p, |comm| {
                let local = vec![comm.rank() as f64, 1.0];
                comm.allreduce_sum(&local)
            });
            let expect0: f64 = (0..p).map(|r| r as f64).sum();
            for r in &results {
                assert_eq!(r[0], expect0, "p={p}");
                assert_eq!(r[1], p as f64);
            }
        }
    }

    #[test]
    fn distributed_dot_product_matches_serial() {
        // A miniature of how the Krylov solver's dot products run on the
        // cluster: each rank owns a contiguous slice.
        let x: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let y: Vec<f64> = (0..100).map(|i| (i as f64 * 0.05).sin()).collect();
        let serial: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let p = 4;
        let results = run_ranks(p, |comm| {
            let chunk = 100 / p;
            let lo = comm.rank() * chunk;
            let hi = if comm.rank() == p - 1 { 100 } else { lo + chunk };
            let local: f64 = x[lo..hi].iter().zip(&y[lo..hi]).map(|(a, b)| a * b).sum();
            comm.allreduce_sum(&[local])[0]
        });
        for r in results {
            assert!((r - serial).abs() < 1e-9);
        }
    }
}
