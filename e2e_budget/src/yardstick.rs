//! The yardstick: a fixed piece of work owned by the benchmark, timed
//! between scans, so that a scan can be reported in yardsticks and not
//! only in milliseconds.
//!
//! Why: this host is a few cores of a shared machine, and its speed has
//! states. With a neighbour busy on the sibling hardware threads,
//! throughput-bound code runs up to 1.6x slower for minutes on end; a
//! neighbour streaming memory slows bandwidth-bound code up to 2x for
//! tens of seconds. A scan's milliseconds follow those states (±15% from
//! one run to the next, on unchanged code), and no length of run a
//! benchmark may have averages over a state that lasts minutes. The same
//! scan divided by a yardstick taken seconds away from it repeats within a
//! few percent, because the state cancels. README.md has the measurements.
//!
//! The three kernels are chosen to be slowed by different things, about
//! 10 ms each: a dependent floating-point chain (latency-bound: the host's
//! states barely touch it, the clock frequency does), eight independent
//! integer chains (throughput-bound: slowed by a busy sibling thread), and
//! a CSR product over 19 MB on every core at once (bandwidth-bound: slowed
//! by a neighbour's memory traffic). Nothing here calls into the crates
//! under test or the thread pool they use, so no later change to the
//! program can move the yardstick.

use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 40_000;
const PER_ROW: usize = 40;
const CHAIN_STEPS: u64 = 4_000_000;
const SPMV_REPS: usize = 8;

pub struct Yardstick {
    col: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    threads: usize,
}

impl Yardstick {
    pub fn new() -> Self {
        // A banded matrix with scattered columns, like a stiffness matrix
        // in mesh order; xorshift64 from a fixed state.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut col = Vec::with_capacity(ROWS * PER_ROW);
        let mut val = Vec::with_capacity(ROWS * PER_ROW);
        for i in 0..ROWS {
            for _ in 0..PER_ROW {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let off = (s % 6000) as i64 - 3000;
                col.push((i as i64 + off).clamp(0, ROWS as i64 - 1) as u32);
                val.push(1.0 / (1 + (s >> 60)) as f64);
            }
        }
        Yardstick {
            col,
            val,
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
            threads: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// Do the fixed work once; milliseconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut f = 1.000_000_001f64;
        for _ in 0..black_box(CHAIN_STEPS) {
            f = f * 1.000_000_001 + 1e-12;
        }
        black_box(f);
        black_box(integer_chains(black_box(CHAIN_STEPS)));
        for _ in 0..SPMV_REPS {
            self.spmv();
        }
        black_box(&self.y);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// `y += A x`, the rows split evenly over one thread a core.
    fn spmv(&mut self) {
        let (col, val, x) = (&self.col, &self.val, &self.x);
        let rows_each = ROWS.div_ceil(self.threads);
        std::thread::scope(|s| {
            for (part, ys) in self.y.chunks_mut(rows_each).enumerate() {
                s.spawn(move || {
                    for (k, y) in ys.iter_mut().enumerate() {
                        let at = (part * rows_each + k) * PER_ROW;
                        let mut acc = 0.0;
                        for e in at..at + PER_ROW {
                            acc += val[e] * x[col[e] as usize];
                        }
                        *y += acc;
                    }
                });
            }
        });
    }
}

#[inline(never)]
fn integer_chains(steps: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let (mut e, mut f, mut g, mut h) = (5u64, 6u64, 7u64, 8u64);
    for i in 0..steps {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.wrapping_mul(5) ^ i;
        c = c.wrapping_add(a >> 3);
        d = d.rotate_left(7) ^ b;
        e = e.wrapping_mul(7).wrapping_add(i);
        f = f.wrapping_mul(9) ^ i;
        g = g.wrapping_add(e >> 3);
        h = h.rotate_left(9) ^ f;
    }
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}
