//! [`PagedDictionary`]: a signature dictionary served from its paged
//! file through the bounded page cache — the out-of-core counterpart of
//! the in-RAM [`SignatureDictionary`].
//!
//! Only the header and the small metadata region (scheme, shapes, MISR
//! template, fault-free trail) are resident; every lookup binary-searches
//! **index pages** streamed from disk by their first trail, scans one
//! page skipping prefix-compressed entries by their shared-prefix
//! lengths, and follows the payload handle to decode just the matched
//! class's positional record. Serving memory is bounded by
//! [`StoreOptions::cache_budget`], not dictionary size.

use std::cmp::Ordering;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use twm_bist::Misr;
use twm_core::scheme::SchemeId;
use twm_coverage::{ContentPolicy, CoverageEngine};
use twm_march::MarchTest;
use twm_mem::{Fault, MemoryConfig};
use twm_repair::{
    AmbiguityClass, AmbiguityStats, DictionaryOptions, DictionaryStream, RepairError,
    SignatureDictionary, SignatureTrail, TrailLookup,
};

use crate::format::{
    fnv64, trail_word_bytes, verify_page, Header, END_OF_PAGE, ENTRY_FIXED, MAGIC, MAX_PAGE_SIZE,
    MIN_PAGE_SIZE,
};
use crate::pager::{PageCacheMetrics, Pager};
use crate::record::{decode_injections, read_varint, MAX_VARINT_LEN};
use crate::writer::write_store;
use crate::{wire, StoreError, FORMAT_VERSION};

/// Geometry and budget of a paged dictionary file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Page size in bytes (checksum included). Default 4096; tests use
    /// small pages to force many-page files.
    pub page_size: usize,
    /// Byte budget of the read-side page cache. Default 64 pages of the
    /// default size (256 KiB). A budget below one page disables caching.
    pub cache_budget: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            page_size: 4096,
            cache_budget: 64 * 4096,
        }
    }
}

/// The resident metadata region of a store file — everything a
/// [`TrailLookup`] must answer without touching the index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StoreMeta {
    pub scheme: SchemeId,
    pub test_name: String,
    /// FNV-1a 64 fingerprint of the source march test's notation when the
    /// source is recorded (matching `twm-fleet`'s `TestFingerprint`), of
    /// the transparent test name otherwise.
    pub fingerprint: u64,
    pub config: MemoryConfig,
    pub content: ContentPolicy,
    pub misr: Misr,
    pub fault_free: SignatureTrail,
    /// The source (non-transparent) march test, recorded by fleet shard
    /// spills so a paged shard can be re-registered after rehydration.
    pub source: Option<MarchTest>,
}

fn fingerprint_of(source: Option<&MarchTest>, test_name: &str) -> u64 {
    match source {
        Some(test) => fnv64(test.to_string().as_bytes()),
        None => fnv64(test_name.as_bytes()),
    }
}

/// A dictionary served from its paged file — see the [module docs](self).
///
/// Lookups take `&self` (the pager sits behind a mutex), so one paged
/// dictionary can serve concurrent fleet workers.
#[derive(Debug)]
pub struct PagedDictionary {
    path: PathBuf,
    header: Header,
    meta: StoreMeta,
    pager: Mutex<Pager>,
}

impl PagedDictionary {
    /// Builds a dictionary for a scheme engine over a fault universe,
    /// **streaming classes to `path` as they drain** — the out-of-core
    /// construction path. Inputs and build semantics are exactly
    /// [`SignatureDictionary::build`]'s (same parallel fan-out, same
    /// bit-identical grouping); the file is then reopened with `options`'
    /// cache budget.
    ///
    /// # Errors
    ///
    /// [`StoreError::Repair`] for build failures (see
    /// [`SignatureDictionary::build`]), [`StoreError::InvalidOptions`]
    /// for an unusable page size, [`StoreError::Io`] for file failures.
    pub fn build_to_disk(
        engine: &CoverageEngine,
        universe: &[Fault],
        options: &DictionaryOptions,
        path: impl AsRef<Path>,
        store: &StoreOptions,
    ) -> Result<Self, StoreError> {
        let mut stream = DictionaryStream::build(engine, universe, options)?;
        let meta = StoreMeta {
            scheme: stream.scheme(),
            test_name: stream.test_name().to_string(),
            fingerprint: fingerprint_of(None, stream.test_name()),
            config: stream.config(),
            content: stream.content(),
            misr: stream.misr_template().clone(),
            fault_free: stream.fault_free_trail().clone(),
            source: None,
        };
        let undetected = stream.take_undetected();
        write_store(path.as_ref(), store.page_size, &meta, &undetected, stream)?;
        Self::open(path, store)
    }

    /// Persists an in-RAM dictionary to a paged file at `path`.
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::build_to_disk`], minus the build errors.
    pub fn write(
        dictionary: &SignatureDictionary,
        path: impl AsRef<Path>,
        store: &StoreOptions,
    ) -> Result<(), StoreError> {
        Self::write_with_source(dictionary, None, path, store)
    }

    /// Persists an in-RAM dictionary, recording the source march test the
    /// fleet shard was registered under — the spill path, so rehydration
    /// can rebuild the shard key and its engines.
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::write`].
    pub fn write_with_source(
        dictionary: &SignatureDictionary,
        source: Option<&MarchTest>,
        path: impl AsRef<Path>,
        store: &StoreOptions,
    ) -> Result<(), StoreError> {
        let meta = StoreMeta {
            scheme: dictionary.scheme(),
            test_name: dictionary.test_name().to_string(),
            fingerprint: fingerprint_of(source, dictionary.test_name()),
            config: dictionary.config(),
            content: dictionary.content(),
            misr: dictionary.misr().clone(),
            fault_free: dictionary.fault_free_trail().clone(),
            source: source.cloned(),
        };
        write_store(
            path.as_ref(),
            store.page_size,
            &meta,
            dictionary.undetected(),
            dictionary.classes(),
        )?;
        Ok(())
    }

    /// Opens a paged dictionary file, verifying magic, version and the
    /// header/metadata checksums. Only the header and metadata become
    /// resident; `options.cache_budget` bounds everything else.
    ///
    /// (`options.page_size` is ignored on open — the file's recorded page
    /// size wins.)
    ///
    /// # Errors
    ///
    /// * [`StoreError::NotAStore`] when the magic does not match.
    /// * [`StoreError::UnsupportedVersion`] for a foreign format version.
    /// * [`StoreError::Truncated`] / [`StoreError::ChecksumMismatch`] /
    ///   [`StoreError::Corrupt`] for a damaged file.
    /// * [`StoreError::Wire`] when the metadata region does not decode.
    pub fn open(path: impl AsRef<Path>, options: &StoreOptions) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;

        // Bootstrap: magic, version and page size come from the first 16
        // bytes; only then can the full header page be fetched/verified.
        let mut probe = [0u8; 16];
        file.read_exact(&mut probe).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::NotAStore
            } else {
                StoreError::Io(e)
            }
        })?;
        if probe[0..8] != MAGIC {
            return Err(StoreError::NotAStore);
        }
        let version = u32::from_le_bytes(probe[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let page_size = u32::from_le_bytes(probe[12..16].try_into().expect("4 bytes")) as usize;
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StoreError::Corrupt(format!(
                "header page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )));
        }
        let mut header_page = vec![0u8; page_size];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header_page).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated { page: 0 }
            } else {
                StoreError::Io(e)
            }
        })?;
        verify_page(&header_page, 0)?;
        let header = Header::decode(&header_page);

        // Metadata region (verified page by page, then wire-decoded).
        let capacity = header.capacity();
        let mut meta_bytes = Vec::with_capacity(header.meta_bytes as usize);
        let mut page = vec![0u8; page_size];
        for index in 1..=header.meta_pages {
            file.read_exact(&mut page).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    StoreError::Truncated { page: index }
                } else {
                    StoreError::Io(e)
                }
            })?;
            verify_page(&page, index)?;
            meta_bytes.extend_from_slice(&page[..capacity]);
        }
        if (meta_bytes.len() as u64) < header.meta_bytes {
            return Err(StoreError::Corrupt(format!(
                "metadata region holds {} bytes, header promises {}",
                meta_bytes.len(),
                header.meta_bytes
            )));
        }
        meta_bytes.truncate(header.meta_bytes as usize);
        if !(1..=twm_mem::MAX_WORD_WIDTH).contains(&(header.width as usize)) {
            return Err(StoreError::Corrupt(format!(
                "header width {} outside [1, {}]",
                header.width,
                twm_mem::MAX_WORD_WIDTH
            )));
        }
        let meta: StoreMeta = wire::from_bytes(&meta_bytes)?;
        if meta.fault_free.len() != header.trail_words as usize {
            return Err(StoreError::Corrupt(format!(
                "metadata fault-free trail holds {} signatures, header promises {}",
                meta.fault_free.len(),
                header.trail_words
            )));
        }
        if meta.config.width() != header.width as usize {
            return Err(StoreError::Corrupt(format!(
                "metadata width {} disagrees with header width {}",
                meta.config.width(),
                header.width
            )));
        }

        let pager = Pager::new(file, page_size, header.total_pages(), options.cache_budget);
        Ok(Self {
            path,
            header,
            meta,
            pager: Mutex::new(pager),
        })
    }

    /// The file the dictionary is served from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the store file in bytes.
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        u64::from(self.header.total_pages()) * u64::from(self.header.page_size)
    }

    /// The file's page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.header.page_size as usize
    }

    /// Number of ambiguity classes indexed.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.header.entries as usize
    }

    /// The source march test recorded at write time (fleet spills), if
    /// any.
    #[must_use]
    pub fn source(&self) -> Option<&MarchTest> {
        self.meta.source.as_ref()
    }

    /// The recorded test fingerprint (see [`PagedDictionary::write_with_source`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.meta.fingerprint
    }

    /// A snapshot of the page cache's hit/miss/eviction counters.
    #[must_use]
    pub fn cache_metrics(&self) -> PageCacheMetrics {
        self.lock_pager().metrics()
    }

    /// The page cache's byte budget.
    #[must_use]
    pub fn cache_budget(&self) -> usize {
        self.lock_pager().budget()
    }

    fn lock_pager(&self) -> std::sync::MutexGuard<'_, Pager> {
        self.pager
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up an observed trail, decoding its ambiguity class from the
    /// payload region on a hit. Trails of a different shape than the
    /// dictionary's miss (as with the in-RAM backend).
    ///
    /// # Errors
    ///
    /// [`StoreError`] variants for I/O failures and on-disk corruption —
    /// never panics, never returns a wrong class.
    pub fn lookup(&self, trail: &SignatureTrail) -> Result<Option<AmbiguityClass>, StoreError> {
        let trail_words = self.header.trail_words as usize;
        let width = self.header.width as usize;
        if trail.len() != trail_words
            || (!trail.is_empty() && trail.width() != width)
            || self.header.index_pages == 0
        {
            return Ok(None);
        }
        let target = trail.packed();

        let mut pager = self.lock_pager();
        // Binary search for the last index page whose first trail is <=
        // the target: the last probe that compared <= is that page.
        let mut low = 0u32;
        let mut high = self.header.index_pages;
        let mut below = None;
        while low < high {
            let mid = low + (high - low) / 2;
            let page = pager.page(self.header.index_start() + mid)?;
            if self.first_trail_cmp(&page, mid, target)? == Ordering::Greater {
                high = mid;
            } else {
                low = mid + 1;
                below = Some((mid, page));
            }
        }
        let Some((page_index, page)) = below else {
            return Ok(None); // target sorts before the first indexed trail
        };
        let Some(entry) = self.find_in_page(&page, target, page_index)? else {
            return Ok(None);
        };
        let injections = self.read_injections(&mut pager, entry, page_index)?;
        Ok(Some(AmbiguityClass {
            trail: trail.clone(),
            injections,
        }))
    }

    /// Reads the injections not signature-detectable under the reference
    /// content (payload record 0).
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::lookup`].
    pub fn undetected(&self) -> Result<Vec<Vec<Fault>>, StoreError> {
        let mut pager = self.lock_pager();
        self.read_record(&mut pager, 0)
    }

    /// Streams every ambiguity class in trail order — the full-scan path
    /// equivalence tests and [`PagedDictionary::read_dictionary`] use.
    #[must_use]
    pub fn iter(&self) -> ClassIter<'_> {
        ClassIter {
            store: self,
            page: 0,
            at: 0,
            current: Vec::new(),
            done: self.header.index_pages == 0,
        }
    }

    /// Rehydrates the full in-RAM [`SignatureDictionary`] — the fleet
    /// export path. This materialises every class; use
    /// [`PagedDictionary::lookup`] for bounded-memory serving.
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::lookup`], plus [`StoreError::Repair`] if the
    /// parts no longer assemble (corruption the checksums cannot see).
    pub fn read_dictionary(&self) -> Result<SignatureDictionary, StoreError> {
        let classes = self.iter().collect::<Result<Vec<_>, _>>()?;
        let undetected = self.undetected()?;
        SignatureDictionary::from_parts(
            self.meta.scheme,
            self.meta.test_name.clone(),
            self.meta.config,
            self.meta.content,
            self.meta.misr.clone(),
            self.meta.fault_free.clone(),
            classes,
            undetected,
        )
        .map_err(StoreError::Repair)
    }

    /// How the first trail of an index page (page-relative index)
    /// orders against `target`, a packed trail.
    fn first_trail_cmp(
        &self,
        page: &[u8],
        page_index: u32,
        target: &[u8],
    ) -> Result<Ordering, StoreError> {
        let Some(entry) = self.entry_at(page, 0, page_index)? else {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index} holds no entries"
            )));
        };
        Ok(self.cmp_suffix(page, &entry, target).0)
    }

    /// Compares `entry`'s stored suffix words with the same positions of
    /// `target`, a packed trail, returning the order and the number of
    /// leading trail words the entry shares with `target` (when it is not
    /// equal).
    fn cmp_suffix(&self, page: &[u8], entry: &IndexEntry, target: &[u8]) -> (Ordering, usize) {
        let word_bytes = trail_word_bytes(self.header.width as usize);
        let stored = page[entry.words_at..entry.end].chunks_exact(word_bytes);
        let expected = target.chunks_exact(word_bytes).skip(entry.prefix);
        for (position, (stored, expected)) in (entry.prefix..).zip(stored.zip(expected)) {
            // Stored words are little-endian, packed ones big-endian.
            match stored.iter().rev().cmp(expected) {
                Ordering::Equal => {}
                order => return (order, position),
            }
        }
        (Ordering::Equal, self.header.trail_words as usize)
    }

    /// Scans one sorted index page for `target` without rebuilding the
    /// trails it passes. `matched` is how many leading words the previous
    /// entry shares with the (larger) target: an entry sharing more with
    /// its predecessor still sorts below the target and is skipped
    /// unread; one sharing less already sorts above it and ends the scan;
    /// only an entry sharing exactly `matched` words has its suffix read.
    fn find_in_page(
        &self,
        page: &[u8],
        target: &[u8],
        page_index: u32,
    ) -> Result<Option<IndexEntry>, StoreError> {
        let mut at = 0usize;
        let mut matched = 0usize;
        while let Some(entry) = self.entry_at(page, at, page_index)? {
            at = entry.end;
            match entry.prefix.cmp(&matched) {
                Ordering::Greater => continue,
                Ordering::Less => return Ok(None),
                Ordering::Equal => {}
            }
            match self.cmp_suffix(page, &entry, target) {
                (Ordering::Equal, _) => return Ok(Some(entry)),
                (Ordering::Less, shared) => matched = shared,
                (Ordering::Greater, _) => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Decodes the entry at `*at`, advancing the cursor and rebuilding
    /// the packed trail into `current`. Returns `None` at end-of-page.
    fn decode_entry(
        &self,
        page: &[u8],
        at: &mut usize,
        current: &mut Vec<u8>,
        page_index: u32,
    ) -> Result<Option<IndexEntry>, StoreError> {
        let Some(entry) = self.entry_at(page, *at, page_index)? else {
            return Ok(None);
        };
        let word_bytes = trail_word_bytes(self.header.width as usize);
        current.truncate(entry.prefix * word_bytes);
        // Stored words are little-endian, packed ones big-endian.
        for word in page[entry.words_at..entry.end].chunks_exact(word_bytes) {
            current.extend(word.iter().rev());
        }
        *at = entry.end;
        Ok(Some(entry))
    }

    /// Parses and validates the fixed part of the entry at `at`. Returns
    /// `None` at end-of-page.
    fn entry_at(
        &self,
        page: &[u8],
        at: usize,
        page_index: u32,
    ) -> Result<Option<IndexEntry>, StoreError> {
        let trail_words = self.header.trail_words as usize;
        let capacity = page.len();
        if at + 2 > capacity {
            return Ok(None);
        }
        let u16_at = |from: usize| usize::from(u16::from_le_bytes([page[from], page[from + 1]]));
        let u32_at =
            |from: usize| u32::from_le_bytes(page[from..from + 4].try_into().expect("4 bytes"));
        let prefix = u16_at(at);
        if prefix == usize::from(END_OF_PAGE) || at + ENTRY_FIXED > capacity {
            // A tail too short for an entry is the zero padding of the
            // page.
            return Ok(None);
        }
        let suffix = u16_at(at + 2);
        if prefix + suffix != trail_words {
            // The zero padding after the last entry of a page reads as
            // prefix 0 + suffix 0; a dictionary trail always has at least
            // one signature, so this cleanly marks end-of-entries.
            if prefix == 0 && suffix == 0 {
                return Ok(None);
            }
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: entry prefix {prefix} + suffix {suffix} != trail \
                 length {trail_words}"
            )));
        }
        if at == 0 && prefix != 0 {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: first entry carries prefix {prefix}"
            )));
        }
        let words_at = at + ENTRY_FIXED;
        let end = words_at + suffix * trail_word_bytes(self.header.width as usize);
        if end > capacity {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: entry suffix runs past the page"
            )));
        }
        Ok(Some(IndexEntry {
            prefix,
            words_at,
            end,
            injections: u32_at(at + 4),
            handle_page: u32_at(at + 8),
            handle_offset: u32_at(at + 12),
        }))
    }

    /// Reads `len` payload bytes from the linear payload stream starting
    /// at `pos` (records may span pages).
    fn read_payload(&self, pager: &mut Pager, pos: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let capacity = self.header.capacity() as u64;
        if pos
            .checked_add(len as u64)
            .is_none_or(|end| end > self.header.payload_bytes)
        {
            return Err(StoreError::Corrupt(format!(
                "payload read of {len} bytes at {pos} runs past the {}-byte payload region",
                self.header.payload_bytes
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = pos;
        let mut remaining = len;
        while remaining > 0 {
            let page_index = u32::try_from(pos / capacity)
                .map_err(|_| StoreError::Corrupt("payload position exceeds u32 pages".into()))?;
            let offset = (pos % capacity) as usize;
            let page = pager.page(self.header.payload_start() + page_index)?;
            let take = remaining.min(page.len() - offset);
            out.extend_from_slice(&page[offset..offset + take]);
            pos += take as u64;
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads the payload record at linear payload position `pos`: a
    /// varint byte length, then the positional injection record.
    fn read_record(&self, pager: &mut Pager, pos: u64) -> Result<Vec<Vec<Fault>>, StoreError> {
        // Most records lie within one page: decode them in place.
        let capacity = self.header.capacity() as u64;
        if pos < self.header.payload_bytes {
            let page_start = pos - pos % capacity;
            let page_index = u32::try_from(pos / capacity)
                .map_err(|_| StoreError::Corrupt("payload position exceeds u32 pages".into()))?;
            let page = pager.page(self.header.payload_start() + page_index)?;
            let stream_end = (self.header.payload_bytes - page_start).min(capacity) as usize;
            let record = &page[(pos - page_start) as usize..stream_end];
            if let Ok((len, used)) = read_varint(record) {
                if let Some(body) = usize::try_from(len)
                    .ok()
                    .and_then(|len| record[used..].get(..len))
                {
                    return Ok(decode_injections(body)?);
                }
            }
        }
        // A record spanning pages (or a malformed one) is gathered, and
        // its errors typed, through the linear stream.
        let head_len = self
            .header
            .payload_bytes
            .saturating_sub(pos)
            .min(MAX_VARINT_LEN as u64) as usize;
        let head = self.read_payload(pager, pos, head_len)?;
        let (len, used) = read_varint(&head)?;
        let len = usize::try_from(len).map_err(|_| crate::RecordError::Overflow)?;
        let body = self.read_payload(pager, pos + used as u64, len)?;
        Ok(decode_injections(&body)?)
    }

    fn read_injections(
        &self,
        pager: &mut Pager,
        entry: IndexEntry,
        page_index: u32,
    ) -> Result<Vec<Vec<Fault>>, StoreError> {
        let capacity = self.header.capacity() as u64;
        let pos = u64::from(entry.handle_page) * capacity + u64::from(entry.handle_offset);
        let injections = self.read_record(pager, pos)?;
        if injections.len() != entry.injections as usize {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: entry promises {} injections, payload holds {}",
                entry.injections,
                injections.len()
            )));
        }
        Ok(injections)
    }
}

/// One index entry's fixed fields and where its suffix words lie.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Leading trail words shared with the previous entry of the page.
    prefix: usize,
    /// Page offset of the first suffix word.
    words_at: usize,
    /// Page offset just past the entry.
    end: usize,
    injections: u32,
    handle_page: u32,
    handle_offset: u32,
}

/// Streaming iterator over every class of a [`PagedDictionary`], in
/// trail order.
#[derive(Debug)]
pub struct ClassIter<'a> {
    store: &'a PagedDictionary,
    page: u32,
    at: usize,
    /// The packed trail of the last decoded entry.
    current: Vec<u8>,
    done: bool,
}

impl Iterator for ClassIter<'_> {
    type Item = Result<AmbiguityClass, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let width = self.store.header.width as usize;
        loop {
            let mut pager = self.store.lock_pager();
            let page = match pager.page(self.store.header.index_start() + self.page) {
                Ok(page) => page,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            match self
                .store
                .decode_entry(&page, &mut self.at, &mut self.current, self.page)
            {
                Ok(Some(entry)) => {
                    let injections = match self.store.read_injections(&mut pager, entry, self.page)
                    {
                        Ok(injections) => injections,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                    };
                    let trail = match SignatureTrail::from_packed(width, &self.current) {
                        Ok(trail) => trail,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(StoreError::Corrupt(format!(
                                "stored trail word: {e}"
                            ))));
                        }
                    };
                    return Some(Ok(AmbiguityClass { trail, injections }));
                }
                Ok(None) => {
                    self.page += 1;
                    self.at = 0;
                    self.current.clear();
                    if self.page >= self.store.header.index_pages {
                        self.done = true;
                        return None;
                    }
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl TrailLookup for PagedDictionary {
    fn scheme(&self) -> SchemeId {
        self.meta.scheme
    }

    fn test_name(&self) -> &str {
        &self.meta.test_name
    }

    fn config(&self) -> MemoryConfig {
        self.meta.config
    }

    fn content(&self) -> ContentPolicy {
        self.meta.content
    }

    fn misr_template(&self) -> &Misr {
        &self.meta.misr
    }

    fn reference_trail(&self) -> &SignatureTrail {
        &self.meta.fault_free
    }

    fn find(&self, trail: &SignatureTrail) -> Result<Option<AmbiguityClass>, RepairError> {
        self.lookup(trail).map_err(StoreError::into_lookup_error)
    }

    fn ambiguity_stats(&self) -> AmbiguityStats {
        AmbiguityStats {
            indexed: self.header.indexed as usize,
            classes: self.header.entries as usize,
            max_class_size: self.header.max_class_size as usize,
            distinguishable: self.header.distinguishable as usize,
            undetected: self.header.undetected as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::SchemeRegistry;
    use twm_march::algorithms::march_c_minus;
    use twm_mem::Word;
    use twm_repair::localise_trail;

    fn engine(words: usize, width: usize) -> (CoverageEngine, Vec<Fault>) {
        let config = MemoryConfig::new(words, width).unwrap();
        let registry = SchemeRegistry::all(width).unwrap();
        let engine = CoverageEngine::for_scheme(
            registry.get(SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .content(ContentPolicy::Random { seed: 11 })
        .build()
        .unwrap();
        let universe = twm_coverage::UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .build();
        (engine, universe)
    }

    fn dictionary(words: usize, width: usize, samples: usize) -> SignatureDictionary {
        let (engine, universe) = engine(words, width);
        let options = DictionaryOptions {
            multi_fault_samples: samples,
            ..DictionaryOptions::default()
        };
        SignatureDictionary::build(&engine, &universe, &options).unwrap()
    }

    fn temp_store(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "twm-paged-test-{}-{tag}.twmstore",
            std::process::id()
        ));
        path
    }

    #[test]
    fn round_trips_through_a_many_page_file() {
        let dictionary = dictionary(8, 4, 40);
        let path = temp_store("round-trip");
        // 256-byte pages force a multi-page index even for this small
        // universe; a 1 KiB budget forces eviction churn during the scan.
        let options = StoreOptions {
            page_size: 256,
            cache_budget: 1024,
        };
        PagedDictionary::write(&dictionary, &path, &options).unwrap();
        let store = PagedDictionary::open(&path, &options).unwrap();

        assert!(store.header.index_pages > 1, "test must span index pages");
        assert_eq!(store.classes(), dictionary.classes().len());
        assert_eq!(store.page_size(), 256);
        assert!(store.file_bytes() > 4 * 1024);
        assert_eq!(TrailLookup::ambiguity_stats(&store), dictionary.stats());
        assert_eq!(TrailLookup::scheme(&store), dictionary.scheme());
        assert_eq!(store.reference_trail(), dictionary.fault_free_trail());
        assert!(store.source().is_none());

        // Every class, bit-identical, via the streaming iterator...
        let streamed: Vec<AmbiguityClass> = store.iter().map(Result::unwrap).collect();
        assert_eq!(streamed.as_slice(), dictionary.classes());
        // ...and via point lookups (disk-served binary search), with
        // near misses that sort between stored trails answered exactly as
        // in RAM.
        for class in dictionary.classes() {
            assert_eq!(store.lookup(&class.trail).unwrap().as_ref(), Some(class));
            let words: Vec<Word> = class.trail.iter().collect();
            for position in [0, words.len() / 2, words.len() - 1] {
                for flip in [1u128, 0b1000] {
                    let mut near = words.clone();
                    near[position] = Word::from_bits(near[position].to_bits() ^ flip, 4).unwrap();
                    let near = SignatureTrail::new(near);
                    assert_eq!(
                        store.lookup(&near).unwrap().as_ref(),
                        dictionary.lookup(&near)
                    );
                }
            }
        }
        assert_eq!(
            store.undetected().unwrap().as_slice(),
            dictionary.undetected()
        );
        assert_eq!(store.read_dictionary().unwrap(), dictionary);
        let metrics = store.cache_metrics();
        assert!(metrics.evictions > 0, "budget must have forced evictions");
        assert!(metrics.hits > 0);

        // Misses stay misses — including wrong-shape trails.
        let absent = SignatureTrail::new(vec![Word::ones(4); dictionary.fault_free_trail().len()]);
        if dictionary.lookup(&absent).is_none() {
            assert_eq!(store.lookup(&absent).unwrap(), None);
        }
        let short = SignatureTrail::new(vec![Word::zeros(4)]);
        assert_eq!(store.lookup(&short).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn build_to_disk_matches_the_in_ram_build() {
        let (engine, universe) = engine(6, 4);
        let options = DictionaryOptions::default();
        let in_ram = SignatureDictionary::build(&engine, &universe, &options).unwrap();
        let path = temp_store("build-to-disk");
        let store = PagedDictionary::build_to_disk(
            &engine,
            &universe,
            &options,
            &path,
            &StoreOptions {
                page_size: 256,
                cache_budget: 2048,
            },
        )
        .unwrap();
        assert_eq!(store.read_dictionary().unwrap(), in_ram);
        assert_eq!(store.fingerprint(), fnv64(in_ram.test_name().as_bytes()));

        // The paged backend plugs into the same diagnosis front end.
        for class in in_ram.classes().iter().take(8) {
            let paged = localise_trail(&store, &class.trail).unwrap();
            let resident = localise_trail(&in_ram, &class.trail).unwrap();
            assert_eq!(paged, resident);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_with_source_records_the_fleet_fingerprint() {
        let dictionary = dictionary(6, 4, 0);
        let path = temp_store("with-source");
        let source = march_c_minus();
        PagedDictionary::write_with_source(
            &dictionary,
            Some(&source),
            &path,
            &StoreOptions::default(),
        )
        .unwrap();
        let store = PagedDictionary::open(&path, &StoreOptions::default()).unwrap();
        assert_eq!(store.source(), Some(&source));
        assert_eq!(
            store.fingerprint(),
            fnv64(source.to_string().as_bytes()),
            "spill fingerprint must match the fleet TestFingerprint"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsorted_class_streams_are_rejected_and_cleaned_up() {
        let dictionary = dictionary(6, 4, 0);
        let path = temp_store("unsorted");
        let meta = StoreMeta {
            scheme: dictionary.scheme(),
            test_name: dictionary.test_name().to_string(),
            fingerprint: 0,
            config: dictionary.config(),
            content: dictionary.content(),
            misr: dictionary.misr().clone(),
            fault_free: dictionary.fault_free_trail().clone(),
            source: None,
        };
        let mut reversed: Vec<AmbiguityClass> = dictionary.classes().to_vec();
        reversed.reverse();
        let err = write_store(&path, 256, &meta, &[], reversed).unwrap_err();
        assert!(matches!(err, StoreError::UnsortedClasses));
        assert!(!path.exists(), "failed writes must not leave partial files");
    }

    #[test]
    fn a_rewrite_leaves_open_handles_answering_from_their_own_file() {
        let first = dictionary(8, 4, 20);
        let second = dictionary(6, 4, 0);
        let path = temp_store("rewrite");
        let options = StoreOptions {
            page_size: 256,
            cache_budget: 0, // every lookup reads the file
        };
        PagedDictionary::write(&first, &path, &options).unwrap();
        let open = PagedDictionary::open(&path, &options).unwrap();
        let before: Vec<Option<AmbiguityClass>> = first
            .classes()
            .iter()
            .map(|class| open.lookup(&class.trail).unwrap())
            .collect();

        // The writer stages the new file and renames it over `path`: the
        // open handle keeps its own, untruncated file.
        PagedDictionary::write(&second, &path, &options).unwrap();
        let after: Vec<Option<AmbiguityClass>> = first
            .classes()
            .iter()
            .map(|class| open.lookup(&class.trail).unwrap())
            .collect();
        assert_eq!(after, before);
        assert_eq!(open.read_dictionary().unwrap(), first);
        assert_eq!(
            PagedDictionary::open(&path, &options)
                .unwrap()
                .read_dictionary()
                .unwrap(),
            second
        );
        let staged = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        assert!(!staged.exists(), "the staged file is renamed away");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn opening_garbage_is_a_typed_error() {
        let path = temp_store("garbage");
        std::fs::write(&path, b"definitely not a store file, but long enough").unwrap();
        assert!(matches!(
            PagedDictionary::open(&path, &StoreOptions::default()),
            Err(StoreError::NotAStore)
        ));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            PagedDictionary::open(&path, &StoreOptions::default()),
            Err(StoreError::NotAStore)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn page_size_validation_is_typed() {
        let dictionary = dictionary(6, 4, 0);
        let path = temp_store("bad-page");
        let err = PagedDictionary::write(
            &dictionary,
            &path,
            &StoreOptions {
                page_size: 64,
                cache_budget: 1024,
            },
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::InvalidOptions(_)));
    }
}
