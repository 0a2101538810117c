//! Deterministic data-parallel primitives over scoped std threads.
//!
//! Every helper here upholds one contract: **output is byte-identical
//! for any thread count**, including `1`. That holds because work is
//! partitioned into contiguous index ranges and each result is written
//! into a pre-sized slot addressed purely by item index — worker
//! scheduling can reorder *when* slots are written, never *where* or
//! *what*. Per-item side effects that must stay exact (hot-path
//! counters) go through the tally variants: each worker accumulates
//! into a private shard and the shards are merged in worker order
//! after the join, so totals are identical across thread counts
//! instead of depending on racy interleavings.
//!
//! No dependencies, no locks on the hot path; `0` means
//! `available_parallelism`, mirroring the vectorizer's convention.

use std::thread;

/// Resolves a thread-count knob: `0` means available parallelism,
/// anything else is taken literally (oversubscription is allowed and
/// useful for determinism tests on small machines).
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Items per worker when `items` items are split into contiguous runs
/// over at most `threads` workers (0 = available parallelism): every
/// run but the last is this long. `0` when there are no items.
#[must_use]
pub fn chunk_len(items: usize, threads: usize) -> usize {
    items.div_ceil(resolve_threads(threads).min(items.max(1)))
}

/// Maps `f(index, &item)` over a slice in parallel, returning results
/// in item order. Byte-identical to the serial map for any `threads`
/// (0 = available parallelism): each worker owns a contiguous chunk of
/// pre-sized output slots addressed by item index.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_tally(items, threads, 0, |i, item, _| f(i, item)).0
}

/// As [`par_map_indexed`], but each worker also carries a private
/// tally shard of `tallies` slots; the shards are summed in worker
/// order after the join and returned alongside the results. Use this
/// to keep observability counters exact across thread counts: workers
/// bump their shard, the caller feeds the merged totals to the global
/// registry once.
pub fn par_map_indexed_tally<T, R, F>(
    items: &[T],
    threads: usize,
    tallies: usize,
    f: F,
) -> (Vec<R>, Vec<u64>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut [u64]) -> R + Sync,
{
    par_map_indexed_scratch(
        items,
        threads,
        tallies,
        || (),
        |(), i, item, tally| f(i, item, tally),
    )
}

/// As [`par_map_indexed_tally`], but each worker also owns a scratch
/// value built by `init`, handed to `f` for every item of that
/// worker's contiguous chunk. Use it to reuse buffers across a chunk's
/// items (e.g. a query server's per-request staging vectors) without
/// per-item allocation — determinism is unaffected as long as `f`'s
/// *output* does not depend on leftover scratch state, which reusable
/// buffers cleared per item satisfy by construction.
pub fn par_map_indexed_scratch<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    tallies: usize,
    init: I,
    f: F,
) -> (Vec<R>, Vec<u64>)
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T, &mut [u64]) -> R + Sync,
{
    let chunk = chunk_len(items.len(), threads);
    let mut tally = vec![0u64; tallies];
    if chunk >= items.len() {
        let mut scratch = init();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut scratch, i, item, &mut tally))
            .collect();
        return (out, tally);
    }

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let shards = thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, out)| {
                let f = &f;
                let init = &init;
                scope.spawn(move || {
                    let base = c * chunk;
                    let mut shard = vec![0u64; tallies];
                    let mut scratch = init();
                    for (off, slot) in out.iter_mut().enumerate() {
                        let i = base + off;
                        *slot = Some(f(&mut scratch, i, &items[i], &mut shard));
                    }
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par worker panicked"))
            .collect::<Vec<_>>()
    });
    // Merge shards in worker order: u64 addition is exact and
    // commutative, but a fixed order keeps the merge principled and
    // trivially auditable.
    for shard in shards {
        for (slot, v) in tally.iter_mut().zip(shard) {
            *slot += v;
        }
    }
    let out = slots
        .into_iter()
        .map(|slot| slot.expect("every slot written"))
        .collect();
    (out, tally)
}

/// Hands the disjoint slices of `out` to `f(s, slice)` on at most
/// `threads` workers: slice `s` is the next `lens[s]` elements after
/// slice `s − 1`. `order` lists every slice once; worker `w` runs the
/// `w`-th contiguous run of [`chunk_len`] entries of `order`, in that
/// order — the split [`par_map_indexed`] makes of its items. Where a
/// slice lands in `out` depends only on `lens`, so the buffer is
/// byte-identical for any `threads` and any `order` as long as `f`
/// writes a pure function of `(s, slice)`. The order is the caller's
/// load-balancing lever: with unequal slices, listing them so that
/// every contiguous run carries a similar amount of work keeps one
/// worker from finishing long after the others.
///
/// # Panics
/// If `lens` does not sum to `out.len()`, or `order` is not a
/// permutation of `0..lens.len()`.
pub fn par_slices_mut<R, F>(out: &mut [R], lens: &[usize], order: &[usize], threads: usize, f: F)
where
    R: Send,
    F: Fn(usize, &mut [R]) + Sync,
{
    assert_eq!(
        lens.iter().sum::<usize>(),
        out.len(),
        "slice lengths must cover the buffer"
    );
    assert_eq!(order.len(), lens.len(), "order must list every slice once");
    let mut slices: Vec<Option<&mut [R]>> = Vec::with_capacity(lens.len());
    let mut rest = out;
    for &len in lens {
        let (head, tail) = rest.split_at_mut(len);
        slices.push(Some(head));
        rest = tail;
    }
    let mut jobs: Vec<(usize, &mut [R])> = order
        .iter()
        .map(|&s| (s, slices[s].take().expect("order lists a slice twice")))
        .collect();
    let chunk = chunk_len(jobs.len(), threads);
    if chunk >= jobs.len() {
        for (s, slice) in jobs {
            f(s, slice);
        }
        return;
    }
    thread::scope(|scope| {
        for run in jobs.chunks_mut(chunk) {
            let f = &f;
            scope.spawn(move || {
                for (s, slice) in run {
                    f(*s, slice);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_passes_nonzero_through() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 4, 8, 16, 300] {
            let par = par_map_indexed(&items, threads, |i, v| v * 3 + i as u64);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn tallies_are_exact_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let mut reference = None;
        for threads in [1, 2, 5, 8, 64] {
            let (_, tally) = par_map_indexed_tally(&items, threads, 2, |i, v, t| {
                t[0] += 1;
                t[1] += v;
                i
            });
            assert_eq!(tally[0], 1000);
            let reference = reference.get_or_insert(tally.clone()).clone();
            assert_eq!(tally, reference, "threads={threads}");
        }
    }

    #[test]
    fn scratch_workers_reuse_buffers_without_changing_output() {
        // Each worker's scratch Vec persists across its chunk (observable
        // through capacity growth) while the mapped output stays
        // byte-identical to the serial run at every thread count.
        let items: Vec<u64> = (0..311).collect();
        let run = |threads| {
            par_map_indexed_scratch(
                &items,
                threads,
                1,
                Vec::<u64>::new,
                |scratch, i, v, tally| {
                    scratch.clear();
                    scratch.extend((0..(v % 7)).map(|x| x * v));
                    tally[0] += scratch.len() as u64;
                    scratch.iter().sum::<u64>() + i as u64
                },
            )
        };
        let (serial, serial_tally) = run(1);
        for threads in [2, 3, 8, 64] {
            let (par, tally) = run(threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(tally, serial_tally, "threads={threads}");
        }
    }

    #[test]
    fn fill_writes_every_slot_identically() {
        // Uneven slices handed out in forward, reversed and interleaved
        // orders: the buffer never depends on which worker ran a slice.
        let lens = [0usize, 7, 1, 100, 3, 0, 512, 9, 391];
        let total: usize = lens.iter().sum();
        let starts: Vec<usize> = lens
            .iter()
            .scan(0, |acc, &len| {
                let start = *acc;
                *acc += len;
                Some(start)
            })
            .collect();
        let fill = |s: usize, slice: &mut [u64]| {
            assert_eq!(slice.len(), lens[s]);
            for (off, v) in slice.iter_mut().enumerate() {
                *v = (starts[s] + off) as u64 * 7;
            }
        };
        let serial: Vec<u64> = (0..total as u64).map(|v| v * 7).collect();
        let forward: Vec<usize> = (0..lens.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let interleaved = [0usize, 8, 1, 7, 2, 6, 3, 5, 4];
        for order in [&forward[..], &reversed, &interleaved] {
            for threads in [1, 2, 3, 8, 17] {
                let mut buf = vec![0u64; total];
                par_slices_mut(&mut buf, &lens, order, threads, fill);
                assert_eq!(buf, serial, "threads={threads} order={order:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "order lists a slice twice")]
    fn slices_reject_an_order_that_repeats_a_slice() {
        let mut buf = vec![0u8; 4];
        par_slices_mut(&mut buf, &[2, 2], &[1, 1], 2, |_, _| {});
    }

    #[test]
    fn chunk_len_matches_the_worker_split() {
        assert_eq!(chunk_len(0, 4), 0);
        assert_eq!(chunk_len(150, 2), 75);
        assert_eq!(chunk_len(150, 8), 19);
        assert_eq!(chunk_len(3, 8), 1);
        assert_eq!(chunk_len(10, 1), 10);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let out: Vec<u32> = par_map_indexed(&[] as &[u32], 4, |_, v| *v);
        assert!(out.is_empty());
        let mut buf: Vec<u32> = Vec::new();
        par_slices_mut(&mut buf, &[], &[], 4, |_, _| panic!("no slices expected"));
    }
}
