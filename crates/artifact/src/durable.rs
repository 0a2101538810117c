//! The one durable-write protocol every file replace goes through:
//! stage checkpoints, serve snapshots, query artifacts, the
//! generation store's files and `CURRENT` pointer, and the WAL's
//! torn-tail repair.
//!
//! 1. write the bytes to `<file name>.tmp` beside the target;
//! 2. fsync the temp file — the rename must not land before the data,
//!    or a power loss can leave a complete-looking file full of holes;
//! 3. rename it over the target;
//! 4. fsync the directory, best-effort (not every platform can), so
//!    the rename itself is durable.
//!
//! A crash at any instant leaves the old target or the new one, never
//! a torn target; at worst a stale temp file, which no reader lists.
//! Each call names a failpoint `<point>` (see
//! [`towerlens_obs::failpoint`]): `<point>.tmp` fires after step 2 and
//! `<point>` after step 4, so the chaos suites kill every writer at
//! the same two positions of the same protocol.

use std::io::Write;
use std::path::{Path, PathBuf};

use towerlens_obs::Failpoints;

/// The temp file a replace of `target` writes first: the whole target
/// file name plus `.tmp`, so distinct targets never share one.
#[must_use]
pub fn temp_path(target: &Path) -> PathBuf {
    let mut name = target.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    target.with_file_name(name)
}

/// Durably replaces `target` with `bytes` (temp write, fsync, rename,
/// directory fsync), firing `<point>.tmp` and `<point>` on `fp`.
///
/// # Errors
/// The first filesystem failure, built by `io_err` from the path it
/// concerns (the temp file or the target).
pub fn replace_durably<E>(
    target: &Path,
    bytes: &[u8],
    point: &str,
    fp: &Failpoints,
    io_err: impl Fn(&Path, std::io::Error) -> E,
) -> Result<(), E> {
    let tmp = temp_path(target);
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    file.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    file.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(file);
    fp.hit(&[point, "tmp"])
        .map_err(|fired| io_err(&tmp, std::io::Error::other(fired)))?;
    std::fs::rename(&tmp, target).map_err(|e| io_err(target, e))?;
    if let Some(dir) = target.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    fp.hit(&[point])
        .map_err(|fired| io_err(target, std::io::Error::other(fired)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_names_keep_the_whole_target_name() {
        assert_eq!(temp_path(Path::new("d/x.a")), Path::new("d/x.a.tmp"));
        assert_eq!(temp_path(Path::new("d/x.b")), Path::new("d/x.b.tmp"));
        assert_eq!(temp_path(Path::new("CURRENT")), Path::new("CURRENT.tmp"));
    }
}
