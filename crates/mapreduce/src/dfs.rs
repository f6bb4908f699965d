//! The reduce-input spill store — the HDFS stand-in's real disk layer.
//!
//! Reduce inputs whose shuffled bytes exceed the job's memory budget are
//! serialized by [`SpillStore`] to length-prefixed frame files (one frame per
//! value, written to a temp file and atomically renamed, the same discipline
//! the checkpoint store uses) and re-read frame-by-frame by [`SpillReader`]
//! when their reduce task runs, so at most the currently-reducing inputs are
//! resident.

use std::fs;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// On-disk spill area for reduce inputs that exceed the job's memory
/// budget. One spill file holds one reduce task's values as consecutive
/// `u32`-length-prefixed frames; the caller keeps the (small) keys and
/// per-key frame counts in memory and streams the frames back in order.
#[derive(Debug, Clone)]
pub struct SpillStore {
    dir: PathBuf,
}

impl SpillStore {
    /// Opens (creating if needed) a spill directory.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory spill files are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `frames` as one spill file named for `job`/`reducer`, via a
    /// temp file + atomic rename so a crash never leaves a torn file behind.
    /// Returns the final path.
    pub fn write_frames<I>(&self, job: &str, reducer: usize, frames: I) -> io::Result<PathBuf>
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let stem = sanitize(job);
        let final_path = self.dir.join(format!("{stem}-r{reducer}.spill"));
        let tmp_path = self.dir.join(format!(".{stem}-r{reducer}.spill.tmp"));
        {
            let mut w = BufWriter::new(fs::File::create(&tmp_path)?);
            for frame in frames {
                let len = u32::try_from(frame.len()).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("spill frame of {} bytes exceeds the u32 limit", frame.len()),
                    )
                })?;
                w.write_all(&len.to_le_bytes())?;
                w.write_all(&frame)?;
            }
            w.flush()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        Ok(final_path)
    }
}

/// Streams the frames of one spill file back in write order.
pub struct SpillReader {
    reader: BufReader<fs::File>,
    path: PathBuf,
}

impl SpillReader {
    /// Opens a spill file for sequential frame reads.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file = fs::File::open(&path)?;
        Ok(Self {
            reader: BufReader::new(file),
            path,
        })
    }

    /// Reads the next frame; `Ok(None)` at a clean end of file. A torn
    /// length prefix or a short frame body is an error, not an EOF.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut len = [0u8; 4];
        match self.reader.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
        self.reader.read_exact(&mut frame)?;
        Ok(Some(frame))
    }

    /// Deletes the underlying spill file (after a reduce task has fully
    /// consumed it).
    pub fn remove(self) -> io::Result<()> {
        let path = self.path;
        drop(self.reader);
        fs::remove_file(path)
    }
}

/// Keeps spill file names filesystem-safe: job names may contain separators.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mrsky-spill-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_round_trips_frames_in_order() {
        let dir = temp_dir("roundtrip");
        let store = SpillStore::create(&dir).unwrap();
        let frames: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![9; 4096], vec![42]];
        let path = store.write_frames("job-a/p1", 3, frames.clone()).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .ends_with("-r3.spill"));
        let mut reader = SpillReader::open(&path).unwrap();
        let mut got = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            got.push(frame);
        }
        assert_eq!(got, frames);
        reader.remove().unwrap();
        assert!(!path.exists(), "remove() deletes the spill file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_write_is_atomic_no_tmp_left_behind() {
        let dir = temp_dir("atomic");
        let store = SpillStore::create(&dir).unwrap();
        let _ = store.write_frames("j", 0, vec![vec![7u8; 10]]).unwrap();
        let leftovers: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "no temp files after a successful write"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let dir = temp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.spill");
        // length prefix promises 8 bytes, body delivers 3
        let mut bytes = 8u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        fs::write(&path, bytes).unwrap();
        let mut reader = SpillReader::open(&path).unwrap();
        assert!(reader.next_frame().is_err(), "short body must be an error");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_spill_file_reads_as_empty() {
        let dir = temp_dir("empty");
        let store = SpillStore::create(&dir).unwrap();
        let path = store.write_frames("j", 1, Vec::<Vec<u8>>::new()).unwrap();
        let mut reader = SpillReader::open(&path).unwrap();
        assert!(reader.next_frame().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
