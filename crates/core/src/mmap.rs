//! A std-only `mmap(2)` wrapper for directly-addressable snapshots.
//!
//! The out-of-core registry tier maps snapshot files instead of decoding
//! them, so the OS page cache — not the process heap — holds corpus bytes,
//! and dropping the map is a complete eviction. No crates.io dependency is
//! available for this, so the module carries its own tiny FFI surface: raw
//! `mmap`/`munmap`/`madvise` on unix, and a plain `read`-into-`Vec` fallback
//! everywhere else (same API, no zero-copy benefit).
//!
//! This is the only module in the crate allowed to use `unsafe`; the crate
//! root carries `#![deny(unsafe_code)]`.
//!
//! [`MappedRegion`] implements [`ByteRegion`], so `wiki-text` arenas and
//! vectors (and the similarity channels above them) can borrow straight from
//! the mapping, and its [`ByteRegion::note_page_in`] hook counts how many
//! lazy materialisations each mapping served — the `page_in_count` surfaced
//! in `/stats` and `/metrics`.

#![allow(unsafe_code)]

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use wiki_text::ByteRegion;

#[cfg(unix)]
mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;
    /// Pages are touched per (type, channel) on first use, not in file
    /// order, so tell the kernel not to read ahead aggressively.
    pub const MADV_RANDOM: c_int = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
}

/// The backing storage: a real mapping on unix, owned bytes elsewhere (and
/// for empty files, which `mmap` rejects with `EINVAL`).
#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Mapped {
        ptr: *mut std::os::raw::c_void,
        len: usize,
    },
    Owned(Vec<u8>),
}

// SAFETY: the mapping is read-only (`PROT_READ`) and private; the raw
// pointer is never handed out mutably, so shared access from any thread only
// ever reads immutable pages.
#[cfg(unix)]
unsafe impl Send for Backing {}
#[cfg(unix)]
unsafe impl Sync for Backing {}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = *self {
            // SAFETY: `ptr`/`len` came from a successful `mmap` and are
            // unmapped exactly once, here.
            unsafe {
                ffi::munmap(ptr, len);
            }
        }
    }
}

/// A read-only memory-mapped file (unix) or its owned-bytes stand-in, with
/// page-in accounting. Shared behind `Arc` by every artifact borrowing from
/// the mapping; dropping the last `Arc` unmaps the file — that *is* the
/// registry's eviction primitive for the out-of-core tier.
#[derive(Debug)]
pub struct MappedRegion {
    backing: Backing,
    page_ins: AtomicU64,
    paged_in_bytes: AtomicU64,
}

impl MappedRegion {
    /// Maps `path` read-only. Empty files and non-unix targets fall back to
    /// reading the bytes onto the heap behind the same API.
    pub fn map_file(path: &Path) -> io::Result<MappedRegion> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file larger than usize"))?;
        let backing = Self::open_backing(&mut file, len)?;
        Ok(MappedRegion {
            backing,
            page_ins: AtomicU64::new(0),
            paged_in_bytes: AtomicU64::new(0),
        })
    }

    #[cfg(unix)]
    fn open_backing(file: &mut File, len: usize) -> io::Result<Backing> {
        use std::os::unix::io::AsRawFd;
        use std::ptr;

        if len == 0 {
            // mmap(2) rejects zero-length mappings with EINVAL.
            return Ok(Backing::Owned(Vec::new()));
        }
        // SAFETY: fd is open for reading and stays open across the call;
        // a PROT_READ + MAP_PRIVATE mapping of it aliases no Rust memory.
        let ptr = unsafe {
            ffi::mmap(
                ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // Advisory only: ignore failures.
        // SAFETY: `ptr`/`len` denote the mapping established above.
        unsafe {
            ffi::madvise(ptr, len, ffi::MADV_RANDOM);
        }
        Ok(Backing::Mapped { ptr, len })
    }

    #[cfg(not(unix))]
    fn open_backing(file: &mut File, len: usize) -> io::Result<Backing> {
        use std::io::Read as _;
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(Backing::Owned(buf))
    }

    /// Number of bytes visible through the region.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// `true` when the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the bytes live in a real `mmap` rather than the heap
    /// fallback — i.e. they count as *mapped*, not *resident*.
    pub fn is_os_mapped(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(self.backing, Backing::Mapped { .. })
        }
        #[cfg(not(unix))]
        {
            false
        }
    }

    /// How many lazy materialisations views have reported against this
    /// mapping (the `page_in_count` stat).
    pub fn page_in_count(&self) -> u64 {
        self.page_ins.load(Ordering::Relaxed)
    }

    /// Total bytes those materialisations copied out of the mapping.
    pub fn paged_in_bytes(&self) -> u64 {
        self.paged_in_bytes.load(Ordering::Relaxed)
    }
}

impl ByteRegion for MappedRegion {
    fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: the mapping is valid for `len` bytes for the
                // lifetime of `self`, is never written through, and `Drop`
                // is the only place it is released.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Backing::Owned(bytes) => bytes,
        }
    }

    fn note_page_in(&self, bytes: usize) {
        self.page_ins.fetch_add(1, Ordering::Relaxed);
        self.paged_in_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("wm-mmap-{}-{}", std::process::id(), tag));
        path
    }

    #[test]
    fn maps_a_file_and_reads_it_back() {
        let path = temp_path("roundtrip");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let region = MappedRegion::map_file(&path).unwrap();
        assert_eq!(region.bytes(), &payload[..]);
        assert_eq!(region.len(), payload.len());
        #[cfg(unix)]
        assert!(region.is_os_mapped());
        drop(region);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_files_map_to_an_empty_region() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let region = MappedRegion::map_file(&path).unwrap();
        assert!(region.is_empty());
        assert!(!region.is_os_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_files_error_instead_of_panicking() {
        assert!(MappedRegion::map_file(&temp_path("missing")).is_err());
    }

    #[test]
    fn page_in_accounting_accumulates() {
        let path = temp_path("pagein");
        std::fs::write(&path, vec![7u8; 64]).unwrap();
        let region = Arc::new(MappedRegion::map_file(&path).unwrap());
        region.note_page_in(48);
        region.note_page_in(16);
        assert_eq!(region.page_in_count(), 2);
        assert_eq!(region.paged_in_bytes(), 64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn region_is_shareable_across_threads() {
        let path = temp_path("threads");
        std::fs::write(&path, vec![3u8; 4096]).unwrap();
        let region: Arc<MappedRegion> = Arc::new(MappedRegion::map_file(&path).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let region = Arc::clone(&region);
                std::thread::spawn(move || region.bytes().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 3 * 4096);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
