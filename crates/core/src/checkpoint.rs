//! Per-partition local-skyline checkpoints: crash a run, resume it, and
//! skip every partition whose local skyline already reached disk.
//!
//! Job 1 of the pipeline (partition → local skyline) is the expensive
//! phase, and its outputs are independent per partition — the natural
//! checkpoint grain. After each partition's reducer finishes, the pipeline
//! writes that partition's local skyline to a [`CheckpointStore`]; a
//! resumed run restores the finished partitions, filters their points out
//! of Job 1's input, and recomputes only what never completed. Restored
//! partitions are traced as `CheckpointRestored` (never as a recomputed
//! `PartitionLocalSkyline` — the trace validator rejects a stream showing
//! both for one partition).
//!
//! # Durability and exactness
//!
//! Writes are atomic at the file level (temp file + rename in the same
//! directory), so a crash mid-write leaves either the complete previous
//! state or a stray `.tmp` the store ignores. Coordinates are stored as
//! hex-encoded IEEE-754 bit patterns, so a restored skyline is *bit-for-bit*
//! the computed one — the crate's exactness-under-failure guarantee could
//! not survive a round-trip through decimal formatting.
//!
//! # Staleness protection
//!
//! A checkpoint directory is only valid for the exact run shape that wrote
//! it. The [`Manifest`] records a dataset fingerprint (FNV-1a over every
//! coordinate bit pattern), the algorithm, and the partition count;
//! [`CheckpointStore::validate`] refuses to resume against anything else.

use mrsky_trace::json::JsonObject;
use qws_data::Dataset;
use skyline_algos::point::Point;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Identity of the run a checkpoint directory belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Algorithm name (e.g. `"MR-Angle"`).
    pub algorithm: String,
    /// [`dataset_fingerprint`] of the input.
    pub fingerprint: u64,
    /// Partition count of the fitted partitioner.
    pub partitions: u64,
}

/// FNV-1a over the dataset's name, shape, and every coordinate's bit
/// pattern — any change to the input invalidates old checkpoints.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in dataset.name.bytes() {
        fold(b);
    }
    for b in (dataset.len() as u64).to_le_bytes() {
        fold(b);
    }
    for b in (dataset.dim() as u64).to_le_bytes() {
        fold(b);
    }
    for (id, row) in dataset.block().iter() {
        for b in id.to_le_bytes() {
            fold(b);
        }
        for c in row {
            for b in c.to_bits().to_le_bytes() {
                fold(b);
            }
        }
    }
    h
}

/// A directory of per-partition checkpoint files plus a manifest.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

const MANIFEST: &str = "manifest.json";

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn partition_path(&self, partition: u64) -> PathBuf {
        self.dir.join(format!("part-{partition:05}.ckpt"))
    }

    /// Writes `content` to `name` atomically: temp file in the same
    /// directory, flush, rename.
    fn write_atomic(&self, name: &str, content: &str) -> io::Result<()> {
        let target = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(content.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &target)
    }

    /// Records the identity of the run writing into this directory.
    pub fn write_manifest(&self, m: &Manifest) -> io::Result<()> {
        // The fingerprint spans the full u64 range; JSON numbers are f64,
        // so it goes through a hex string to survive the round-trip.
        let json = JsonObject::new()
            .string("algorithm", &m.algorithm)
            .string("fingerprint", &format!("{:016x}", m.fingerprint))
            .int("partitions", m.partitions)
            .finish();
        self.write_atomic(MANIFEST, &json)
    }

    /// Loads the manifest, `None` when the directory has none (fresh dir).
    pub fn manifest(&self) -> io::Result<Option<Manifest>> {
        let path = self.dir.join(MANIFEST);
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)?;
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint manifest {}: {what}", path.display()),
            )
        };
        let value = mrsky_trace::json::parse(&text).map_err(|e| bad(&e.to_string()))?;
        let field = |key: &str| value.get(key).ok_or_else(|| bad(&format!("missing {key}")));
        Ok(Some(Manifest {
            algorithm: field("algorithm")?
                .as_str()
                .ok_or_else(|| bad("algorithm not a string"))?
                .to_string(),
            fingerprint: field("fingerprint")?
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| bad("fingerprint not a hex string"))?,
            partitions: field("partitions")?
                .as_u64()
                .ok_or_else(|| bad("partitions not an integer"))?,
        }))
    }

    /// Refuses to resume from a directory written by a different run shape.
    /// A fresh (manifest-less) directory validates trivially.
    pub fn validate(&self, expected: &Manifest) -> io::Result<()> {
        match self.manifest()? {
            None => Ok(()),
            Some(found) if found == *expected => Ok(()),
            Some(found) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint directory {} was written by a different run: \
                     found {}/{:016x}/{} partitions, expected {}/{:016x}/{}",
                    self.dir.display(),
                    found.algorithm,
                    found.fingerprint,
                    found.partitions,
                    expected.algorithm,
                    expected.fingerprint,
                    expected.partitions,
                ),
            )),
        }
    }

    /// Durably records one partition's finished local skyline. `sky` may be
    /// empty (a pruned partition is finished work too).
    pub fn write_partition(&self, partition: u64, sky: &[Point]) -> io::Result<()> {
        let mut out = String::with_capacity(32 + sky.len() * 24);
        out.push_str(&format!("partition {partition}\n"));
        for p in sky {
            out.push_str(&format!("{:016x}", p.id()));
            for c in p.coords() {
                out.push_str(&format!(" {:016x}", c.to_bits()));
            }
            out.push('\n');
        }
        self.write_atomic(&format!("part-{partition:05}.ckpt"), &out)
    }

    /// Loads every completed partition's local skyline, keyed by partition
    /// id. Stray `.tmp` files (crash mid-write) are ignored.
    pub fn restore(&self) -> io::Result<BTreeMap<u64, Vec<Point>>> {
        let mut out = BTreeMap::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("part-") || !name.ends_with(".ckpt") {
                continue;
            }
            let path = entry.path();
            let (partition, sky) = parse_partition_file(&path, &fs::read_to_string(&path)?)?;
            out.insert(partition, sky);
        }
        Ok(out)
    }

    /// Partition ids with a completed checkpoint on disk.
    pub fn completed(&self) -> io::Result<Vec<u64>> {
        Ok(self.restore()?.into_keys().collect())
    }

    /// Deletes every checkpoint file and the manifest (start-fresh).
    pub fn clear(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == MANIFEST
                || name.ends_with(".tmp")
                || (name.starts_with("part-") && name.ends_with(".ckpt"))
            {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Convenience: does `partition` have a completed checkpoint?
    pub fn has_partition(&self, partition: u64) -> bool {
        self.partition_path(partition).exists()
    }
}

fn parse_partition_file(path: &Path, text: &str) -> io::Result<(u64, Vec<Point>)> {
    let bad = |what: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint {}: {what}", path.display()),
        )
    };
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty file".into()))?;
    let partition = header
        .strip_prefix("partition ")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| bad(format!("bad header {header:?}")))?;
    let mut sky = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(' ');
        let id = fields
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad(format!("line {}: bad id", i + 2)))?;
        let mut coords = Vec::new();
        for f in fields {
            let bits = u64::from_str_radix(f, 16)
                .map_err(|_| bad(format!("line {}: bad coordinate {f:?}", i + 2)))?;
            coords.push(f64::from_bits(bits));
        }
        if coords.is_empty() {
            return Err(bad(format!("line {}: point has no coordinates", i + 2)));
        }
        sky.push(Point::new(id, coords));
    }
    Ok((partition, sky))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qws_data::{generate_qws, QwsConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mrsky-ckpt-{tag}-{}",
            std::process::id() // unique per test process; tags separate tests
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_points_bit_for_bit() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let pts = vec![
            Point::new(7, vec![0.1, 0.2, 0.30000000000000004]),
            Point::new(9, vec![1.0 / 3.0, f64::MIN_POSITIVE, 1e300]),
        ];
        store.write_partition(3, &pts).unwrap();
        store.write_partition(5, &[]).unwrap();
        let restored = store.restore().unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[&3], pts, "coordinates must round-trip exactly");
        assert!(restored[&5].is_empty(), "empty skyline is a valid state");
        assert!(store.has_partition(3));
        assert!(!store.has_partition(4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trip_and_validation() {
        let dir = temp_dir("manifest");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.manifest().unwrap().is_none());
        let m = Manifest {
            algorithm: "MR-Angle".into(),
            fingerprint: 0xdead_beef_0123_4567,
            partitions: 16,
        };
        store.write_manifest(&m).unwrap();
        assert_eq!(store.manifest().unwrap(), Some(m.clone()));
        store.validate(&m).unwrap();
        let other = Manifest {
            partitions: 8,
            ..m.clone()
        };
        let err = store.validate(&other).expect_err("shape mismatch");
        assert!(err.to_string().contains("different run"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_state() {
        let dir = temp_dir("clear");
        let store = CheckpointStore::open(&dir).unwrap();
        store
            .write_partition(1, &[Point::new(1, vec![0.5])])
            .unwrap();
        store
            .write_manifest(&Manifest {
                algorithm: "x".into(),
                fingerprint: 1,
                partitions: 1,
            })
            .unwrap();
        store.clear().unwrap();
        assert!(store.restore().unwrap().is_empty());
        assert!(store.manifest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_sensitive_to_any_change() {
        let a = generate_qws(&QwsConfig::new(50, 3));
        let b = generate_qws(&QwsConfig::new(50, 3));
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        let c = generate_qws(&QwsConfig::new(51, 3));
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&c));
        let d = generate_qws(&QwsConfig::new(50, 3).with_seed(99));
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&d));
    }

    #[test]
    fn fingerprint_is_pinned_so_old_checkpoints_still_resume() {
        // A manifest stores this hash; if it moved, every checkpoint
        // directory written before the change would refuse to resume.
        let qws = generate_qws(&QwsConfig::new(300, 5).with_seed(11));
        let hostile = Dataset::new(
            "hostile",
            vec![
                Point::new(9, vec![-0.0, 1.5, 0.0]),
                Point::new(2, vec![0.0, -0.0, 1e300]),
                Point::new(5, vec![3.0, 3.0, -2.5]),
            ],
        )
        .unwrap();
        assert_eq!(dataset_fingerprint(&qws), 0xceff_4c6c_e567_0402);
        assert_eq!(dataset_fingerprint(&hostile), 0x6e63_7df1_462e_9a40);
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        let dir = temp_dir("tmpfiles");
        let store = CheckpointStore::open(&dir).unwrap();
        store
            .write_partition(0, &[Point::new(1, vec![0.5])])
            .unwrap();
        fs::write(dir.join("part-00001.ckpt.tmp"), "partition 1\ngarbage").unwrap();
        let restored = store.restore().unwrap();
        assert_eq!(restored.len(), 1, "half-written checkpoint is invisible");
        assert!(restored.contains_key(&0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_a_loud_error() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        fs::write(dir.join("part-00002.ckpt"), "partition 2\nnot-hex").unwrap();
        let err = store.restore().expect_err("corrupt file must not parse");
        assert!(err.to_string().contains("bad id"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
