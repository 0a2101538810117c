//! A torn tail must not outlive its segment being the last one.
//!
//! Replay tolerates a crash-interrupted final line only in the *last*
//! segment — the one write a crash can legitimately interrupt. When a
//! restarted writer opens a newer segment, that tolerance would
//! expire, so [`WalWriter::open`] repairs the tear first: the torn
//! line was never acknowledged, truncating it loses nothing, and
//! every later replay sees a clean directory.

use towerlens_serve::wal::segment_path;
use towerlens_serve::{replay, WalWriter};

#[test]
fn torn_tail_is_repaired_before_a_new_segment_opens() {
    let dir = std::env::temp_dir().join(format!("towerlens-review-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Run 1: two acked entries, then a crash tears the third line.
    let mut w = WalWriter::open(&dir).unwrap();
    w.append(0, "a").unwrap();
    w.append(1, "b").unwrap();
    w.sync().unwrap();
    drop(w);
    let path = segment_path(&dir, 0);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("r 2 00ff"); // interrupted mid-write
    std::fs::write(&path, text).unwrap();

    // Restart 1: replay tolerates the torn tail of the last segment...
    let out = replay(&dir).unwrap();
    assert_eq!(out.next_seq, 2);
    assert_eq!(out.torn_tails, 1);

    // ...and opening the writer repairs it before segment 1 starts,
    // so the restarted process re-acks the lost line cleanly.
    let mut w2 = WalWriter::open(&dir).unwrap();
    assert_eq!(w2.segment_index(), 1);
    assert!(
        !std::fs::read_to_string(&path).unwrap().contains("r 2 00ff"),
        "torn line survived the writer reopening"
    );
    w2.append(2, "c").unwrap();
    w2.sync().unwrap();
    drop(w2);

    // Restart 2: segment 0 is no longer last, and no longer torn.
    let second = replay(&dir).unwrap();
    assert_eq!(second.next_seq, 3);
    assert_eq!(second.torn_tails, 0);
    assert_eq!(
        second
            .entries
            .iter()
            .map(|e| e.line.as_str())
            .collect::<Vec<_>>(),
        ["a", "b", "c"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acknowledged source lines can hold non-ASCII text, so a torn final
/// write can split a multi-byte character. That tail was never
/// acknowledged either: replay tolerates it, and the writer repairs it
/// and opens the next segment, instead of every start failing on a
/// segment that is not UTF-8.
#[test]
fn torn_multibyte_tail_is_tolerated_and_repaired() {
    let dir =
        std::env::temp_dir().join(format!("towerlens-review-torn-utf8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut w = WalWriter::open(&dir).unwrap();
    w.append(0, "1\t0\t600\t0\t10\tHauptstraße").unwrap();
    w.append(1, "2\t0\t600\t1\t20\tBahnhofstraße").unwrap();
    w.sync().unwrap();
    drop(w);
    // Cut the file right after the last 0xC3, the first byte of `ß`.
    let path = segment_path(&dir, 0);
    let bytes = std::fs::read(&path).unwrap();
    let cut = bytes.iter().rposition(|&b| b == 0xC3).unwrap() + 1;
    std::fs::write(&path, &bytes[..cut]).unwrap();
    assert!(std::str::from_utf8(&bytes[..cut]).is_err());

    let out = replay(&dir).unwrap();
    assert_eq!((out.next_seq, out.torn_tails), (1, 1));
    assert_eq!(out.entries[0].line, "1\t0\t600\t0\t10\tHauptstraße");

    let w2 = WalWriter::open(&dir).unwrap();
    assert_eq!(w2.segment_index(), 1);
    drop(w2);
    let repaired = replay(&dir).unwrap();
    assert_eq!((repaired.next_seq, repaired.torn_tails), (1, 0));
    assert_eq!(repaired.entries, out.entries);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash inside the 16 hex digits of a seal footer leaves a line
/// that is not a complete footer: the segment never got its seal, and
/// the torn line was never acknowledged. At every such cut replay
/// tolerates it and keeps every entry, the writer repairs it, and the
/// next sealed segment replays clean.
#[test]
fn seal_torn_inside_its_hash_is_tolerated_and_repaired() {
    let dir =
        std::env::temp_dir().join(format!("towerlens-review-torn-seal-{}", std::process::id()));
    let lines = ["a", "b"];
    for digits in 0..16 {
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = WalWriter::open(&dir).unwrap();
        for (seq, line) in lines.iter().enumerate() {
            w.append(seq as u64, line).unwrap();
        }
        w.rotate().unwrap();
        drop(w);
        let path = segment_path(&dir, 0);
        let sealed = std::fs::read(&path).unwrap();
        let hash_at = sealed.len() - 17;
        assert!(sealed[..hash_at].ends_with(b"\nseal 2 "));
        std::fs::write(&path, &sealed[..hash_at + digits]).unwrap();

        let torn = replay(&dir).unwrap_or_else(|e| panic!("{digits} digits: {e}"));
        assert_eq!((torn.next_seq, torn.torn_tails), (2, 1), "{digits} digits");
        let kept: Vec<&str> = torn.entries.iter().map(|e| e.line.as_str()).collect();
        assert_eq!(kept, lines, "{digits} digits");

        let mut w = WalWriter::open(&dir).unwrap();
        assert_eq!(w.segment_index(), 1, "{digits} digits");
        let seal_at = hash_at - "seal 2 ".len();
        assert_eq!(std::fs::read(&path).unwrap(), &sealed[..seal_at]);
        w.append(2, "c").unwrap();
        assert!(w.rotate().unwrap());
        drop(w);

        let clean = replay(&dir).unwrap();
        assert_eq!(
            (clean.next_seq, clean.sealed_segments, clean.torn_tails),
            (3, 1, 0),
            "{digits} digits"
        );
        assert_eq!(clean.entries[..2], torn.entries[..], "{digits} digits");
        assert_eq!(clean.entries[2].line, "c");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
