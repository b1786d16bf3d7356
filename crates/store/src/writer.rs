//! The single-pass store writer: streams sorted ambiguity classes into a
//! paged file without materialising the dictionary.
//!
//! The file is assembled at a sibling temp path and only renamed over
//! the final path once complete and fsynced, so a crash never leaves a
//! partial file there, and a rewrite never truncates a file an open
//! [`crate::PagedDictionary`] still reads (the reader keeps the old
//! inode). On Unix the directory is fsynced after the rename, so the
//! rename itself survives a crash.
//!
//! Index entries append to the temp file as classes drain (their
//! region directly follows the metadata); payload records — positional
//! [`crate::record`]s behind a varint length — stream to a second temp
//! file because their region comes last and its page count is only known
//! at the end. Once the class stream is dry the payload bytes are
//! page-chunked and checksummed into the file, and the header — whose
//! statistics fields accumulated during the drain — is rewritten over
//! the placeholder page 0. Peak memory is one page buffer plus one
//! class, whatever the dictionary size.

use std::borrow::Borrow;
use std::ffi::OsString;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use twm_repair::AmbiguityClass;

use crate::format::{
    pages_for, seal_page, trail_word_bytes, Header, CHECKSUM_LEN, END_OF_PAGE, ENTRY_FIXED,
    MAX_PAGE_SIZE, MIN_PAGE_SIZE,
};
use crate::paged::StoreMeta;
use crate::record::{encode_injections, write_varint};
use crate::{wire, StoreError};

/// Longest count of equal leading `word_bytes`-byte words.
fn common_prefix(a: &[u8], b: &[u8], word_bytes: usize) -> usize {
    a.chunks_exact(word_bytes)
        .zip(b.chunks_exact(word_bytes))
        .take_while(|(x, y)| x == y)
        .count()
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| OsString::from("store"), OsString::from);
    name.push(suffix);
    path.with_file_name(name)
}

/// Validates a page size against the entry geometry it must hold.
pub(crate) fn validate_page_size(
    page_size: usize,
    trail_words: usize,
    width: usize,
) -> Result<(), StoreError> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return Err(StoreError::InvalidOptions(format!(
            "page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
        )));
    }
    if trail_words >= usize::from(END_OF_PAGE) {
        return Err(StoreError::InvalidOptions(format!(
            "trail length {trail_words} exceeds the index entry format"
        )));
    }
    let full_entry = ENTRY_FIXED + trail_words * trail_word_bytes(width);
    let capacity = page_size - CHECKSUM_LEN;
    if full_entry > capacity {
        return Err(StoreError::InvalidOptions(format!(
            "page capacity {capacity} cannot hold one full index entry of {full_entry} bytes \
             (trail of {trail_words} words)"
        )));
    }
    Ok(())
}

/// Writes a complete store file at `path`. `classes` must yield
/// strictly trail-ascending classes whose trails share `meta`'s
/// fault-free shape — exactly what [`twm_repair::DictionaryStream`] and
/// [`twm_repair::SignatureDictionary::classes`] produce, owned or
/// borrowed.
pub(crate) fn write_store<I>(
    path: &Path,
    page_size: usize,
    meta: &StoreMeta,
    undetected: &[Vec<twm_mem::Fault>],
    classes: I,
) -> Result<Header, StoreError>
where
    I: IntoIterator,
    I::Item: Borrow<AmbiguityClass>,
{
    validate_page_size(page_size, meta.fault_free.len(), meta.config.width())?;
    let staged = sibling(path, ".tmp");
    let payload = sibling(path, ".payload.tmp");
    let result = write_store_inner(&staged, &payload, page_size, meta, undetected, classes)
        .and_then(|header| {
            std::fs::rename(&staged, path)?;
            sync_directory(path)?;
            Ok(header)
        });
    let _ = std::fs::remove_file(&payload);
    if result.is_err() {
        let _ = std::fs::remove_file(&staged);
    }
    result
}

/// Makes a rename into `path`'s directory durable: until the directory
/// itself is fsynced, a crash can lose the new entry and leave the old
/// file, or none, at `path`. Only Unix opens a directory for syncing;
/// elsewhere this does nothing.
#[cfg(unix)]
fn sync_directory(path: &Path) -> std::io::Result<()> {
    let directory = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(directory)?.sync_all()
}

#[cfg(not(unix))]
fn sync_directory(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Appends one payload record — varint byte length, then the positional
/// injection record — returning its linear payload position.
fn write_record(
    payload: &mut BufWriter<File>,
    payload_bytes: &mut u64,
    scratch: &mut Vec<u8>,
    injections: &[Vec<twm_mem::Fault>],
) -> Result<u64, StoreError> {
    let at = *payload_bytes;
    scratch.clear();
    encode_injections(injections, scratch);
    let body = scratch.len();
    write_varint(scratch, body as u64);
    let length = &scratch[body..];
    payload.write_all(length)?;
    payload.write_all(&scratch[..body])?;
    *payload_bytes += scratch.len() as u64;
    Ok(at)
}

fn write_store_inner<I>(
    staged: &Path,
    payload_path: &Path,
    page_size: usize,
    meta: &StoreMeta,
    undetected: &[Vec<twm_mem::Fault>],
    classes: I,
) -> Result<Header, StoreError>
where
    I: IntoIterator,
    I::Item: Borrow<AmbiguityClass>,
{
    let capacity = page_size - CHECKSUM_LEN;
    let trail_words = meta.fault_free.len();
    let width = meta.config.width();
    let word_bytes = trail_word_bytes(width);

    // Payload stream: undetected first (its handle is implicitly
    // position 0). Read+write: the stream is read back for page-chunking
    // at the end.
    let mut payload = BufWriter::new(
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(payload_path)?,
    );
    let mut payload_bytes: u64 = 0;
    let mut scratch = Vec::new();
    write_record(&mut payload, &mut payload_bytes, &mut scratch, undetected)?;

    // Staged file: placeholder header, then the metadata region.
    let mut out = BufWriter::new(File::create(staged)?);
    out.write_all(&vec![0u8; page_size])?;
    let meta_encoded = wire::to_bytes(meta);
    let meta_pages = pages_for(meta_encoded.len() as u64, capacity);
    let mut page = vec![0u8; page_size];
    for chunk in meta_encoded.chunks(capacity) {
        page.fill(0);
        page[..chunk.len()].copy_from_slice(chunk);
        seal_page(&mut page);
        out.write_all(&page)?;
    }

    // Index region, streamed: prefix-compressed entries, first entry of
    // every page full so pages are self-contained.
    let mut offset = 0usize;
    let mut index_pages = 0u32;
    let mut last_trail: Vec<u8> = Vec::with_capacity(trail_words * word_bytes);
    let mut entries = 0u64;
    let mut indexed = 0u64;
    let mut max_class_size = 0u64;
    let mut distinguishable = 0u64;
    page.fill(0);
    for class in classes {
        let class = class.borrow();
        let trail = &class.trail;
        if trail.len() != trail_words {
            return Err(StoreError::Corrupt(format!(
                "class trail holds {} signatures, expected {trail_words}",
                trail.len()
            )));
        }
        if !trail.is_empty() && trail.width() != width {
            return Err(StoreError::Corrupt(format!(
                "class trail carries {}-bit signatures, expected {width}",
                trail.width()
            )));
        }
        // One width, so bytewise order is trail order.
        let words = trail.packed();
        if entries > 0 && words <= last_trail.as_slice() {
            return Err(StoreError::UnsortedClasses);
        }

        let record_at = write_record(
            &mut payload,
            &mut payload_bytes,
            &mut scratch,
            &class.injections,
        )?;
        let handle_page = u32::try_from(record_at / capacity as u64)
            .map_err(|_| StoreError::Corrupt("payload region exceeds u32 pages".into()))?;
        let handle_offset = (record_at % capacity as u64) as u32;
        let injections = u32::try_from(class.injections.len())
            .map_err(|_| StoreError::Corrupt("class injection count exceeds u32".into()))?;

        // The previous class is the previous entry of this page unless
        // the page is fresh.
        let mut prefix = if offset == 0 {
            0
        } else {
            common_prefix(&last_trail, words, word_bytes)
        };
        let mut entry_len = ENTRY_FIXED + (trail_words - prefix) * word_bytes;
        if offset + entry_len > capacity {
            // Seal this page (early-end sentinel if there is room) and
            // start a fresh one with a full entry.
            if offset + 2 <= capacity {
                page[offset..offset + 2].copy_from_slice(&END_OF_PAGE.to_le_bytes());
            }
            seal_page(&mut page);
            out.write_all(&page)?;
            index_pages += 1;
            page.fill(0);
            offset = 0;
            prefix = 0;
            entry_len = ENTRY_FIXED + trail_words * word_bytes;
        }
        page[offset..offset + 2].copy_from_slice(&(prefix as u16).to_le_bytes());
        page[offset + 2..offset + 4]
            .copy_from_slice(&((trail_words - prefix) as u16).to_le_bytes());
        page[offset + 4..offset + 8].copy_from_slice(&injections.to_le_bytes());
        page[offset + 8..offset + 12].copy_from_slice(&handle_page.to_le_bytes());
        page[offset + 12..offset + 16].copy_from_slice(&handle_offset.to_le_bytes());
        let mut at = offset + ENTRY_FIXED;
        // Stored words are little-endian, packed ones big-endian.
        for word in words[prefix * word_bytes..].chunks_exact(word_bytes) {
            page[at..at + word_bytes]
                .iter_mut()
                .zip(word.iter().rev())
                .for_each(|(to, &from)| *to = from);
            at += word_bytes;
        }
        offset += entry_len;

        entries += 1;
        indexed += u64::from(injections);
        max_class_size = max_class_size.max(u64::from(injections));
        if injections == 1 {
            distinguishable += 1;
        }
        last_trail.clear();
        last_trail.extend_from_slice(words);
    }
    if offset > 0 {
        if offset + 2 <= capacity {
            page[offset..offset + 2].copy_from_slice(&END_OF_PAGE.to_le_bytes());
        }
        seal_page(&mut page);
        out.write_all(&page)?;
        index_pages += 1;
    }

    // Payload region: page-chunk the temp stream into the final file.
    payload.flush()?;
    let mut payload_file = payload
        .into_inner()
        .map_err(|e| StoreError::Io(e.into_error()))?;
    payload_file.seek(SeekFrom::Start(0))?;
    let payload_pages = pages_for(payload_bytes, capacity);
    let mut reader = BufReader::new(payload_file);
    let mut remaining = payload_bytes;
    for _ in 0..payload_pages {
        page.fill(0);
        let take = (remaining as usize).min(capacity);
        reader.read_exact(&mut page[..take])?;
        remaining -= take as u64;
        seal_page(&mut page);
        out.write_all(&page)?;
    }

    // Rewrite the real header over the placeholder.
    let header = Header {
        page_size: page_size as u32,
        meta_bytes: meta_encoded.len() as u64,
        meta_pages,
        index_pages,
        payload_pages,
        entries,
        indexed,
        undetected: undetected.len() as u64,
        max_class_size,
        distinguishable,
        trail_words: trail_words as u32,
        width: width as u32,
        payload_bytes,
    };
    out.flush()?;
    let mut file = out
        .into_inner()
        .map_err(|e| StoreError::Io(e.into_error()))?;
    header.encode(&mut page);
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&page)?;
    file.sync_all()?;
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn syncs_the_directory_of_relative_and_absolute_paths() {
        sync_directory(Path::new("store.twmstore")).unwrap();
        sync_directory(&std::env::temp_dir().join("store.twmstore")).unwrap();
        let missing = std::env::temp_dir()
            .join(format!("twm-no-such-dir-{}", std::process::id()))
            .join("store.twmstore");
        assert!(sync_directory(&missing).is_err());
    }
}
