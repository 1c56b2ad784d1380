//! The memo store's directory layout.
//!
//! Objects live at `<root>/<kind>/<fp>.<ext>`; writes go through a
//! unique temp file in `<root>/tmp/` plus an atomic rename, so readers
//! (including other processes sharing the directory) only ever observe
//! complete files.

use super::ObjectKind;
use crate::error::SimError;
use llbp_trace::fingerprint::Fingerprint;
use std::fs;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Read buffer of [`LocalDir::stream`]: a quick trace object
/// (≈3 MB) takes about 46 reads through it.
const STREAM_BUFFER: usize = 64 << 10;

/// Subdirectory of the temp files that publishes rename into place.
const TMP_DIR: &str = "tmp";

/// The widest `<pid>-<seq>-` prefix of a temp file name: a `u32` PID and
/// a `u64` sequence number at their full decimal width.
const TEMP_PREFIX_MAX: usize = 10 + 1 + 20 + 1;

/// The path of one object in the directory layout at `root`,
/// `<root>/<dir>/<32 hex digits>.<ext>`, built in one allocation. Its text
/// is that of `root.join(dir).join(format!("{fp}.{ext}"))`, so stores
/// written before stay addressable.
#[must_use]
pub fn object_path_in(root: &Path, kind: ObjectKind, fp: Fingerprint) -> PathBuf {
    let digits = fp.hex_digits();
    let name = std::str::from_utf8(&digits).expect("hex digits are ASCII");
    // Two separators and the extension's dot.
    let len = root.as_os_str().len() + kind.dir().len() + name.len() + kind.ext().len() + 3;
    let mut path = PathBuf::with_capacity(len);
    path.push(root);
    path.push(kind.dir());
    path.push(name);
    let text = path.as_mut_os_string();
    text.push(".");
    text.push(kind.ext());
    path
}

/// A content-addressed object directory.
#[derive(Debug)]
pub struct LocalDir {
    root: PathBuf,
}

impl LocalDir {
    /// Opens (creating if necessary) the directory layout at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the tree cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join(ObjectKind::Trace.dir()))?;
        fs::create_dir_all(root.join(ObjectKind::Result.dir()))?;
        fs::create_dir_all(root.join(ObjectKind::Prov.dir()))?;
        fs::create_dir_all(root.join(TMP_DIR))?;
        Ok(Self { root })
    }

    /// The backing directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path addressing one object ([`object_path_in`] this root).
    #[must_use]
    pub fn object_path(&self, kind: ObjectKind, fp: Fingerprint) -> PathBuf {
        object_path_in(&self.root, kind, fp)
    }

    /// Opens one object for reading, `Ok(None)` on miss.
    fn open_object(
        &self,
        kind: ObjectKind,
        fp: Fingerprint,
        op: &'static str,
    ) -> Result<Option<fs::File>, SimError> {
        match fs::File::open(self.object_path(kind, fp)) {
            Ok(file) => Ok(Some(file)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SimError::MemoIo { op, detail: e.to_string() }),
        }
    }

    /// The temp file a publish of `dest` writes first,
    /// `<root>/tmp/<pid>-<seq>-<dest's name>`, built in one allocation
    /// whatever the number of digits in the PID and in `seq`.
    fn temp_path(&self, dest: &Path, seq: u64) -> PathBuf {
        let name = dest.file_name().and_then(|n| n.to_str()).unwrap_or("cell");
        let mut prefix = [0u8; TEMP_PREFIX_MAX];
        let mut rest = &mut prefix[..];
        write!(rest, "{}-{seq}-", std::process::id()).expect("the prefix fits its widest form");
        let written = TEMP_PREFIX_MAX - rest.len();
        let prefix = std::str::from_utf8(&prefix[..written]).expect("decimal digits are ASCII");
        // Two separators.
        let len = self.root.as_os_str().len() + TMP_DIR.len() + TEMP_PREFIX_MAX + name.len() + 2;
        let mut tmp = PathBuf::with_capacity(len);
        tmp.push(&self.root);
        tmp.push(TMP_DIR);
        tmp.push(prefix);
        tmp.as_mut_os_string().push(name);
        tmp
    }

    /// Writes `bytes` to a unique temp file and renames it into place.
    fn publish(&self, bytes: &[u8], dest: &Path) -> std::io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.temp_path(dest, SEQ.fetch_add(1, Ordering::Relaxed));
        fs::write(&tmp, bytes)?;
        match fs::rename(&tmp, dest) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Reads the whole object, `Ok(None)` on miss.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] when the object exists but cannot be read.
    pub fn get(&self, kind: ObjectKind, fp: Fingerprint) -> Result<Option<Vec<u8>>, SimError> {
        match fs::read(self.object_path(kind, fp)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SimError::MemoIo { op: "get", detail: e.to_string() }),
        }
    }

    /// Hands the object to `consume` as a reader through a small buffer,
    /// so its bytes are never held whole, and returns what `consume`
    /// returned; on a miss `consume` is not called and the result is
    /// `Ok(None)`. An IO error `consume` meets while reading is its own
    /// to classify.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] when the object exists but cannot be opened.
    pub fn stream<T>(
        &self,
        kind: ObjectKind,
        fp: Fingerprint,
        consume: impl FnOnce(&mut dyn Read) -> T,
    ) -> Result<Option<T>, SimError> {
        let file = self.open_object(kind, fp, "stream")?;
        Ok(file.map(|file| consume(&mut BufReader::with_capacity(STREAM_BUFFER, file))))
    }

    /// Publishes an object atomically: readers never observe a partial
    /// write.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] when the write or the rename fails.
    pub fn put(&self, kind: ObjectKind, fp: Fingerprint, bytes: &[u8]) -> Result<(), SimError> {
        self.publish(bytes, &self.object_path(kind, fp))
            .map_err(|e| SimError::MemoIo { op: "put", detail: e.to_string() })
    }

    /// Reads the object's first `len` bytes (the whole object when
    /// shorter), `Ok(None)` on miss.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] when the object exists but cannot be read.
    pub fn head(
        &self,
        kind: ObjectKind,
        fp: Fingerprint,
        len: usize,
    ) -> Result<Option<Vec<u8>>, SimError> {
        let Some(mut file) = self.open_object(kind, fp, "head")? else {
            return Ok(None);
        };
        let mut buf = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            match file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(SimError::MemoIo { op: "head", detail: e.to_string() }),
            }
        }
        buf.truncate(filled);
        Ok(Some(buf))
    }

    /// Whether the object exists (no validation).
    #[must_use]
    pub fn contains(&self, kind: ObjectKind, fp: Fingerprint) -> bool {
        self.object_path(kind, fp).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn scratch() -> (LocalDir, PathBuf) {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "llbp-localdir-unit-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        (LocalDir::open(&dir).expect("temp dir"), dir)
    }

    #[test]
    fn blobs_roundtrip_per_kind() {
        let (store, dir) = scratch();
        let fp = Fingerprint(0xabcd);
        for kind in [ObjectKind::Trace, ObjectKind::Result, ObjectKind::Prov] {
            assert_eq!(store.get(kind, fp).expect("clean"), None);
            assert!(!store.contains(kind, fp));
            store.put(kind, fp, b"hello world").expect("put");
            assert_eq!(store.get(kind, fp).expect("hit"), Some(b"hello world".to_vec()));
            assert!(store.contains(kind, fp));
        }
        // The two kinds address disjoint namespaces even for equal fps.
        store.put(ObjectKind::Trace, fp, b"trace bytes").expect("put");
        assert_eq!(
            store.get(ObjectKind::Result, fp).expect("hit"),
            Some(b"hello world".to_vec()),
            "result object must be untouched by the trace overwrite"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stream_reads_what_get_returns() {
        let (store, dir) = scratch();
        let fp = Fingerprint(2);
        let streamed = || {
            let consume = |r: &mut dyn Read| {
                let mut bytes = Vec::new();
                r.read_to_end(&mut bytes).expect("readable");
                bytes
            };
            store.stream(ObjectKind::Trace, fp, consume).expect("no IO trouble")
        };
        assert_eq!(streamed(), None, "a miss never calls the consumer");
        let bytes: Vec<u8> = (0..200_000u32).map(|i| i.to_le_bytes()[0]).collect();
        store.put(ObjectKind::Trace, fp, &bytes).expect("put");
        assert_eq!(streamed(), Some(bytes), "an object past one buffer streams whole");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn temp_and_object_paths_keep_the_text_of_joined_parts() {
        let (store, dir) = scratch();
        for fp in [Fingerprint(0), Fingerprint(0xabcd), Fingerprint(u128::MAX)] {
            for kind in [ObjectKind::Trace, ObjectKind::Result, ObjectKind::Prov] {
                let dest = store.object_path(kind, fp);
                for seq in [0, 9, 10, 12_345, u64::MAX] {
                    let name = dest.file_name().and_then(|n| n.to_str()).expect("UTF-8 name");
                    let joined =
                        dir.join("tmp").join(format!("{}-{seq}-{name}", std::process::id()));
                    assert_eq!(store.temp_path(&dest, seq).as_os_str(), joined.as_os_str());
                }
            }
        }
        assert_eq!(
            store.temp_path(Path::new("/"), 3).as_os_str(),
            dir.join("tmp").join(format!("{}-3-cell", std::process::id())).as_os_str(),
            "a destination without a name publishes as `cell`"
        );
        // Roots as written: relative, empty, and with a trailing separator.
        for root in ["store", "", "store/"] {
            let fp = Fingerprint(7);
            assert_eq!(
                object_path_in(Path::new(root), ObjectKind::Result, fp).as_os_str(),
                Path::new(root).join("results").join(format!("{fp}.llbr")).as_os_str()
            );
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn head_reads_a_prefix_without_failing_short_objects() {
        let (store, dir) = scratch();
        let fp = Fingerprint(1);
        assert_eq!(store.head(ObjectKind::Result, fp, 16).expect("clean"), None);
        store.put(ObjectKind::Result, fp, b"0123456789").expect("put");
        assert_eq!(store.head(ObjectKind::Result, fp, 4).expect("hit"), Some(b"0123".to_vec()));
        assert_eq!(
            store.head(ObjectKind::Result, fp, 64).expect("hit"),
            Some(b"0123456789".to_vec()),
            "a head longer than the object returns the whole object"
        );
        let _ = fs::remove_dir_all(dir);
    }
}
