//! Property test for the determinism contract: `par_map_indexed` (and
//! the tally variant) must equal the serial map — results *and*
//! merged tallies — for arbitrary inputs, thread counts, and
//! chunkings. This is the guarantee the pipeline's golden and
//! chaos-resume tests lean on when `--threads` varies.

use proptest::prelude::*;
use towerlens_par::{par_map_indexed, par_map_indexed_tally, par_slices_mut};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_matches_serial_map(
        items in prop::collection::vec(0u32..1_000_000, 0..200),
        threads in 1usize..=24,
    ) {
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &v)| u64::from(v).wrapping_mul(i as u64 + 1))
            .collect();
        let par = par_map_indexed(&items, threads, |i, &v| {
            u64::from(v).wrapping_mul(i as u64 + 1)
        });
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn tallies_match_serial_for_any_thread_count(
        items in prop::collection::vec(1u32..1000, 1..150),
        threads in 1usize..=24,
    ) {
        let (serial_out, serial_tally) =
            par_map_indexed_tally(&items, 1, 2, |i, &v, t| {
                t[0] += 1;
                t[1] += u64::from(v);
                i as u64 + u64::from(v)
            });
        let (out, tally) = par_map_indexed_tally(&items, threads, 2, |i, &v, t| {
            t[0] += 1;
            t[1] += u64::from(v);
            i as u64 + u64::from(v)
        });
        prop_assert_eq!(out, serial_out);
        prop_assert_eq!(tally, serial_tally);
        prop_assert_eq!(tally[0], items.len() as u64);
    }

    #[test]
    fn par_slices_match_serial_for_any_chunking(
        len in 0usize..300,
        threads in 1usize..=16,
        chunk in 1usize..64,
        rotate in 0usize..64,
    ) {
        // Cut the buffer into `chunk`-long slices and hand them out in a
        // rotated order, a stand-in for any caller-chosen schedule.
        let lens: Vec<usize> = (0..len.div_ceil(chunk))
            .map(|c| chunk.min(len - c * chunk))
            .collect();
        let mut order: Vec<usize> = (0..lens.len()).collect();
        if !order.is_empty() {
            let by = rotate % order.len();
            order.rotate_left(by);
        }
        let fill = |s: usize, slice: &mut [u64]| {
            for (off, v) in slice.iter_mut().enumerate() {
                *v = ((s * chunk + off) as u64).wrapping_mul(2_654_435_761);
            }
        };
        let serial: Vec<u64> = (0..len as u64)
            .map(|v| v.wrapping_mul(2_654_435_761))
            .collect();
        let mut par = vec![0u64; len];
        par_slices_mut(&mut par, &lens, &order, threads, fill);
        prop_assert_eq!(par, serial);
    }
}
