//! The directly-addressable snapshot layout — format **v4**.
//!
//! Format v3 (see [`crate::snapshot`]) is a *compact* stream: varint
//! id-deltas, sparse channel bitmaps, length-prefixed records. Decoding it
//! is a full pass that heap-allocates every artifact. This module defines
//! the sibling **direct** form with the same 36-byte header framing (magic,
//! version, corpus fingerprint, payload length, checksum) but a payload
//! built for *borrowing*:
//!
//! ```text
//! header    magic | version=4 | fingerprint | payload length | checksum
//! payload   u64 dict_off | u64 dict_len | u64 type_count
//!           type_count × (u64 rec_off | u64 rec_len)      ← offset directory
//!           dictionary bytes (compact v3 encoding — stays heap-owned)
//!           per-type records, each 8-aligned
//! record    u64 meta_len | meta | pad to 8 | data sections
//! meta      type id, languages, labels, dual count, attribute scalars,
//!           occurrence patterns, candidate-index bitsets, and the
//!           *relative offsets* of every data section
//! sections  arena offset table ((len+1) × u32 LE)   — stride 4
//!           arena text (concatenated UTF-8)
//!           per attribute × 5 channels: ids (u32 LE, stride 4)
//!                                       weights (f64 bits LE, stride 8)
//!           similarity channels lsi | vsim | lsim (f64 bits LE, stride 8)
//! ```
//!
//! All directory offsets are **absolute file offsets**, so the ranges handed
//! to [`TermArena::from_mapped`], [`TermVector::from_mapped`] and
//! [`SimilarityTable::from_mapped`] index straight into the mapped file.
//! Weights travel as raw IEEE-754 bits in both forms, so converting v3 ⇄ v4
//! (and decoding either owned or mapped) is bit-exact — pinned by the
//! `mmap_equivalence` suite.
//!
//! **Validation discipline:** `parse_layout` checks everything up front —
//! framing, checksum, directory bounds, section bounds, stride alignment,
//! arena sortedness/UTF-8, vector id monotonicity — so the lazy
//! materialisation that happens later (on first touch of a mapped artifact)
//! is infallible. Truncated or misaligned offset directories are rejected
//! here with typed [`SnapshotError`]s, never discovered mid-read.
//!
//! **What stays heap-owned** even in the mapped form: the title dictionary,
//! schema metadata (labels, attribute names), occurrence patterns and the
//! candidate-index bitsets — all small, all needed eagerly. The arena text,
//! the five per-attribute vector channels and the three similarity channels
//! — the bytes that dominate a snapshot — are borrowed from the region: a
//! mapped table reads its LSI section in place and, on first touch, reads
//! the `vsim`/`lsim` sections into its heap-owned evidence rows.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use wiki_corpus::Language;
use wiki_text::{ByteRegion, TermArena, TermVector};
use wiki_translate::TitleDictionary;

use crate::engine::PreparedType;
use crate::mmap::MappedRegion;
use crate::schema::{AttributeStats, CandidateIndex, DualSchema};
use crate::similarity::{Evidence, SimilarityTable};
use crate::snapshot::{
    checksum, decode_pair_set, decode_pattern, encode_pair_set, encode_pattern, write_atomically,
    Dec, Enc, EngineSnapshot, SnapshotError, HEADER_LEN, MAGIC,
};

/// Version stamped into the header of every directly-addressable snapshot.
/// [`EngineSnapshot::from_bytes`] accepts both this and the compact
/// [`crate::snapshot::FORMAT_VERSION`]; [`EngineSnapshot::save`] keeps
/// writing the compact form (the wire/archive encoding), while
/// [`EngineSnapshot::save_direct`] writes this one (the serving encoding).
pub const DIRECT_FORMAT_VERSION: u32 = 4;

fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

fn align8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

// ---------------------------------------------------------------------------
// Encoding: owned artifacts → v4 bytes.

/// The `(id, weight)` entries of a vector, expressed in the schema arena's
/// ids (same discipline as the v3 encoder: a vector moved off the shared
/// arena is re-interned term by term, and a term the arena does not know
/// panics loudly at encode time rather than writing a wrong-terms file).
fn entries_in_arena(vector: &TermVector, arena: &Arc<TermArena>) -> Vec<(u32, f64)> {
    if Arc::ptr_eq(vector.arena(), arena) {
        vector.id_entries().to_vec()
    } else {
        vector
            .iter()
            .map(|(term, weight)| {
                let id = arena
                    .intern(term)
                    .expect("schema arena must hold every term of every schema vector");
                (id, weight)
            })
            .collect()
    }
}

/// Encodes one type's artifacts as a v4 record:
/// `meta_len | meta | pad | sections`, with every section offset in the
/// meta expressed relative to the (8-aligned) section base.
fn encode_type_record(type_id: &str, prepared: &PreparedType) -> Vec<u8> {
    let schema = &prepared.schema;
    let arena = schema.arena();

    let mut sections: Vec<u8> = Vec::new();
    // Arena offset table: (len + 1) cumulative text offsets, stride 4.
    let arena_offsets_rel = sections.len();
    let mut cum: u32 = 0;
    sections.extend_from_slice(&cum.to_le_bytes());
    for term in arena.terms() {
        cum += term.len() as u32;
        sections.extend_from_slice(&cum.to_le_bytes());
    }
    pad8(&mut sections);
    // Arena text: every term's bytes, concatenated in id order.
    let arena_text_rel = sections.len();
    for term in arena.terms() {
        sections.extend_from_slice(term.as_bytes());
    }
    let arena_text_len = cum as usize;
    pad8(&mut sections);
    // Per-attribute channel sections: ids then weights, fixed stride.
    let mut vector_layouts: Vec<[(usize, usize, usize); 5]> =
        Vec::with_capacity(schema.attributes.len());
    for attr in &schema.attributes {
        let mut five = [(0usize, 0usize, 0usize); 5];
        for (slot, vector) in [
            &attr.values,
            &attr.translated_values,
            &attr.raw_values,
            &attr.translated_raw_values,
            &attr.links,
        ]
        .into_iter()
        .enumerate()
        {
            let entries = entries_in_arena(vector, arena);
            let ids_rel = sections.len();
            for (id, _) in &entries {
                sections.extend_from_slice(&id.to_le_bytes());
            }
            pad8(&mut sections);
            let weights_rel = sections.len();
            for (_, weight) in &entries {
                sections.extend_from_slice(&weight.to_bits().to_le_bytes());
            }
            five[slot] = (entries.len(), ids_rel, weights_rel);
        }
        vector_layouts.push(five);
    }
    // Similarity channels, canonical pair order, stride 8: the three
    // sections are laid out first, then filled in one walk over the pairs.
    let table = &prepared.table;
    assert!(
        table.stores_every_pair(),
        "snapshots only hold exact-mode tables"
    );
    let n = table.attribute_count();
    let section_len = n * n.saturating_sub(1) / 2 * 8;
    let lsi_rel = sections.len();
    let vsim_rel = lsi_rel + section_len;
    let lsim_rel = vsim_rel + section_len;
    sections.resize(lsim_rel + section_len, 0);
    let mut at = 0usize;
    table.for_each_pair(|pair| {
        for (rel, value) in [
            (lsi_rel, pair.lsi),
            (vsim_rel, pair.vsim),
            (lsim_rel, pair.lsim),
        ] {
            sections[rel + at..rel + at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        }
        at += 8;
    });

    let mut meta = Enc::new();
    meta.str(type_id);
    meta.str(schema.languages.0.code());
    meta.str(schema.languages.1.code());
    meta.str(&schema.label_other);
    meta.str(&schema.label_en);
    meta.u64(schema.dual_count as u64);
    meta.u64(arena.len() as u64);
    meta.u64(arena_offsets_rel as u64);
    meta.u64(arena_text_rel as u64);
    meta.u64(arena_text_len as u64);
    meta.u64(schema.attributes.len() as u64);
    for (attr, five) in schema.attributes.iter().zip(&vector_layouts) {
        meta.str(attr.language.code());
        meta.str(&attr.name);
        meta.u64(attr.occurrences as u64);
        for &(len, ids_rel, weights_rel) in five {
            meta.u64(len as u64);
            meta.u64(ids_rel as u64);
            meta.u64(weights_rel as u64);
        }
        encode_pattern(&mut meta, &attr.occurrence_pattern);
    }
    meta.u64(n as u64);
    meta.u64(lsi_rel as u64);
    meta.u64(vsim_rel as u64);
    meta.u64(lsim_rel as u64);
    let index = prepared
        .index
        .as_ref()
        .expect("snapshots only hold exact-mode artifacts, which have an index");
    encode_pair_set(&mut meta, index.value_pairs());
    encode_pair_set(&mut meta, index.link_pairs());
    let meta = meta.0;

    let mut record = Vec::with_capacity(8 + align8(meta.len()) + sections.len());
    record.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    record.extend_from_slice(&meta);
    pad8(&mut record);
    record.extend_from_slice(&sections);
    record
}

impl EngineSnapshot {
    /// Serializes the snapshot into the directly-addressable v4 form —
    /// the converter from the compact in-memory/owned representation to
    /// the mappable one. Lossless: `from_bytes(to_direct_bytes())`
    /// restores bit-identical artifacts.
    pub fn to_direct_bytes(&self) -> Vec<u8> {
        let _span = wiki_obs::Span::enter("snapshot_encode_direct");
        wiki_fault::pause("snapshot.encode");
        // Dictionary section: the compact v3 encoding (sorted entries for
        // a canonical byte stream) — it is decoded eagerly either way.
        let mut dict = Enc::new();
        dict.str(self.dictionary.source().code());
        dict.str(self.dictionary.target().code());
        let mut entries: Vec<(&str, &str)> = self.dictionary.entries().collect();
        entries.sort_unstable();
        dict.u64(entries.len() as u64);
        for (key, value) in entries {
            dict.str(key);
            dict.str(value);
        }
        let dict = dict.0;

        let records: Vec<Vec<u8>> = self
            .types
            .iter()
            .map(|(type_id, prepared)| encode_type_record(type_id, prepared))
            .collect();

        // Offset directory, then dictionary, then 8-aligned records; all
        // offsets absolute from the file start.
        let dir_len = 24 + 16 * records.len();
        let dict_off = HEADER_LEN + dir_len;
        let mut cursor = align8(dict_off + dict.len());
        let rec_spans: Vec<(usize, usize)> = records
            .iter()
            .map(|record| {
                let span = (cursor, record.len());
                cursor = align8(cursor + record.len());
                span
            })
            .collect();

        let mut payload = Vec::with_capacity(cursor - HEADER_LEN);
        payload.extend_from_slice(&(dict_off as u64).to_le_bytes());
        payload.extend_from_slice(&(dict.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for &(off, len) in &rec_spans {
            payload.extend_from_slice(&(off as u64).to_le_bytes());
            payload.extend_from_slice(&(len as u64).to_le_bytes());
        }
        payload.extend_from_slice(&dict);
        for (&(off, _), record) in rec_spans.iter().zip(&records) {
            payload.resize(off - HEADER_LEN, 0);
            payload.extend_from_slice(record);
        }

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&DIRECT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Saves the snapshot in the v4 form, atomically (temp file + rename,
    /// like [`EngineSnapshot::save`]).
    pub fn save_direct(&self, path: &Path) -> Result<(), SnapshotError> {
        let _span = wiki_obs::Span::enter("snapshot_save_direct");
        wiki_obs::registry()
            .counter(
                "wm_snapshot_saves_total",
                "Engine snapshots written to disk.",
            )
            .inc();
        write_atomically(path, &self.to_direct_bytes(), "snapshot.save.write")
    }
}

// ---------------------------------------------------------------------------
// Layout parsing: shared by the owned and mapped decoders.

struct VectorLayout {
    len: usize,
    ids: Range<usize>,
    weights: Range<usize>,
}

struct AttrLayout {
    language: Language,
    name: String,
    occurrences: usize,
    vectors: [VectorLayout; 5],
    occurrence_pattern: Vec<bool>,
}

struct TypeLayout {
    type_id: String,
    languages: (Language, Language),
    label_other: String,
    label_en: String,
    dual_count: usize,
    arena_len: usize,
    arena_offsets: Range<usize>,
    arena_text: Range<usize>,
    attrs: Vec<AttrLayout>,
    lsi: Range<usize>,
    vsim: Range<usize>,
    lsim: Range<usize>,
    index: CandidateIndex,
}

struct Layout {
    fingerprint: u64,
    dictionary: TitleDictionary,
    types: Vec<TypeLayout>,
}

fn malformed(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(detail.into())
}

/// Validates the whole v4 file — framing, checksum, offset directory,
/// section bounds and stride alignment — and returns the absolute byte
/// ranges of every borrowable section plus the eagerly-decoded small parts.
fn parse_layout(bytes: &[u8]) -> Result<Layout, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            Err(SnapshotError::BadMagic)
        } else {
            Err(SnapshotError::Truncated)
        };
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != DIRECT_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: DIRECT_FORMAT_VERSION,
        });
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    match u64::try_from(payload.len()) {
        Ok(have) if have < payload_len => return Err(SnapshotError::Truncated),
        Ok(have) if have > payload_len => {
            return Err(malformed(format!(
                "{} trailing bytes after the payload",
                have - payload_len
            )))
        }
        _ => {}
    }
    let expected = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
    let found = checksum(payload);
    if found != expected {
        return Err(SnapshotError::ChecksumMismatch { found, expected });
    }

    let mut dec = Dec::new(payload);
    let dict_off = dec.scalar()?;
    let dict_len = dec.scalar()?;
    let n_types = dec.count()?;
    let mut spans = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        let rec_off = dec.scalar()?;
        let rec_len = dec.scalar()?;
        spans.push((rec_off, rec_len));
    }

    let dict_end = dict_off
        .checked_add(dict_len)
        .ok_or(SnapshotError::Truncated)?;
    let dict_slice = bytes
        .get(dict_off..dict_end)
        .ok_or(SnapshotError::Truncated)?;
    let mut d = Dec::new(dict_slice);
    let source = Language::from_code(&d.str()?);
    let target = Language::from_code(&d.str()?);
    let n_entries = d.count()?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let key = d.str()?;
        let value = d.str()?;
        entries.push((key, value));
    }
    if !d.finished() {
        return Err(malformed("dictionary section longer than its contents"));
    }
    let dictionary = TitleDictionary::from_entries(source, target, entries);

    let mut types = Vec::with_capacity(n_types);
    for (rec_off, rec_len) in spans {
        if !rec_off.is_multiple_of(8) {
            return Err(malformed(format!(
                "type record offset {rec_off} is not 8-aligned"
            )));
        }
        let rec_end = rec_off
            .checked_add(rec_len)
            .ok_or(SnapshotError::Truncated)?;
        let record = bytes
            .get(rec_off..rec_end)
            .ok_or(SnapshotError::Truncated)?;
        types.push(parse_type_record(record, rec_off)?);
    }
    Ok(Layout {
        fingerprint,
        dictionary,
        types,
    })
}

fn parse_type_record(record: &[u8], rec_off: usize) -> Result<TypeLayout, SnapshotError> {
    let mut dec = Dec::new(record);
    let meta_len = dec.count()?;
    let meta = dec.take(meta_len)?;
    // The data sections start at the first 8-aligned byte after the meta;
    // `rec_off` is 8-aligned, so absolute alignment follows relative.
    let base = rec_off + align8(8 + meta_len);
    let rec_end = rec_off + record.len();
    let section = |rel: usize, len: usize, stride: usize| -> Result<Range<usize>, SnapshotError> {
        if !rel.is_multiple_of(stride) {
            return Err(malformed(format!(
                "section offset {rel} breaks its stride-{stride} alignment"
            )));
        }
        let start = base.checked_add(rel).ok_or(SnapshotError::Truncated)?;
        let end = start.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > rec_end {
            return Err(SnapshotError::Truncated);
        }
        Ok(start..end)
    };

    let mut m = Dec::new(meta);
    let type_id = m.str()?;
    let languages = (
        Language::from_code(&m.str()?),
        Language::from_code(&m.str()?),
    );
    let label_other = m.str()?;
    let label_en = m.str()?;
    let dual_count = m.scalar()?;
    let arena_len = m.scalar()?;
    let offsets_bytes = arena_len
        .checked_add(1)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| malformed("arena length overflows"))?;
    let arena_offsets = section(m.scalar()?, offsets_bytes, 4)?;
    let arena_text_rel = m.scalar()?;
    let arena_text_len = m.scalar()?;
    let arena_text = section(arena_text_rel, arena_text_len, 1)?;

    let n_attrs = m.count()?;
    let mut attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let language = Language::from_code(&m.str()?);
        let name = m.str()?;
        let occurrences = m.scalar()?;
        let mut vectors = Vec::with_capacity(5);
        for _ in 0..5 {
            let len = m.scalar()?;
            let ids_bytes = len
                .checked_mul(4)
                .ok_or_else(|| malformed("vector length overflows"))?;
            let weights_bytes = len
                .checked_mul(8)
                .ok_or_else(|| malformed("vector length overflows"))?;
            let ids = section(m.scalar()?, ids_bytes, 4)?;
            let weights = section(m.scalar()?, weights_bytes, 8)?;
            vectors.push(VectorLayout { len, ids, weights });
        }
        let vectors: [VectorLayout; 5] = vectors
            .try_into()
            .map_err(|_| malformed("expected five vector channels"))?;
        let occurrence_pattern = decode_pattern(&mut m, dual_count)?;
        attrs.push(AttrLayout {
            language,
            name,
            occurrences,
            vectors,
            occurrence_pattern,
        });
    }

    let n = m.scalar()?;
    if n != attrs.len() {
        return Err(malformed(format!(
            "similarity table covers {n} attributes, schema has {}",
            attrs.len()
        )));
    }
    let pair_bytes = (n * n.saturating_sub(1) / 2)
        .checked_mul(8)
        .ok_or_else(|| malformed("pair count overflows"))?;
    let lsi = section(m.scalar()?, pair_bytes, 8)?;
    let vsim = section(m.scalar()?, pair_bytes, 8)?;
    let lsim = section(m.scalar()?, pair_bytes, 8)?;
    let value_pairs = decode_pair_set(&mut m, n)?;
    let link_pairs = decode_pair_set(&mut m, n)?;
    if !m.finished() {
        return Err(malformed(format!(
            "type record {type_id:?} meta longer than its contents"
        )));
    }
    Ok(TypeLayout {
        type_id,
        languages,
        label_other,
        label_en,
        dual_count,
        arena_len,
        arena_offsets,
        arena_text,
        attrs,
        lsi,
        vsim,
        lsim,
        index: CandidateIndex::from_parts(value_pairs, link_pairs),
    })
}

// ---------------------------------------------------------------------------
// Decoding: v4 bytes → owned or mapped artifacts.

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"))
}

fn read_f64_bits(bytes: &[u8], at: usize) -> f64 {
    f64::from_bits(u64::from_le_bytes(
        bytes[at..at + 8].try_into().expect("8-byte field"),
    ))
}

/// Decodes a v4 file into **fully heap-owned** artifacts — the converter
/// from the direct form back to the compact in-memory representation
/// (`EngineSnapshot::from_bytes` lands here for version-4 files).
pub(crate) fn decode_owned(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
    let _span = wiki_obs::Span::enter("snapshot_decode_direct");
    let layout = parse_layout(bytes)?;
    let mut types = Vec::with_capacity(layout.types.len());
    for t in layout.types {
        // Arena: slice the text through the offset table.
        let text = &bytes[t.arena_text.clone()];
        let mut terms = Vec::with_capacity(t.arena_len);
        let mut prev_off = 0usize;
        for i in 0..t.arena_len {
            let start = read_u32(bytes, t.arena_offsets.start + i * 4) as usize;
            let end = read_u32(bytes, t.arena_offsets.start + (i + 1) * 4) as usize;
            if start != prev_off || end < start || end > text.len() {
                return Err(malformed("arena offset table not monotone"));
            }
            prev_off = end;
            let term = std::str::from_utf8(&text[start..end])
                .map_err(|_| malformed("non-UTF-8 arena term"))?;
            terms.push(term.to_string());
        }
        if prev_off != text.len() {
            return Err(malformed("arena offset table does not cover the text"));
        }
        let arena = Arc::new(
            TermArena::from_sorted_terms(terms)
                .ok_or_else(|| malformed("arena string table not strictly sorted"))?,
        );

        let decode_vector = |layout: &VectorLayout| -> Result<TermVector, SnapshotError> {
            let mut entries = Vec::with_capacity(layout.len);
            for i in 0..layout.len {
                let id = read_u32(bytes, layout.ids.start + i * 4);
                let weight = read_f64_bits(bytes, layout.weights.start + i * 8);
                entries.push((id, weight));
            }
            TermVector::from_ids(Arc::clone(&arena), entries)
                .ok_or_else(|| malformed("term vector ids out of order or outside the arena"))
        };
        let mut attributes = Vec::with_capacity(t.attrs.len());
        for attr in &t.attrs {
            attributes.push(AttributeStats {
                language: attr.language.clone(),
                name: attr.name.clone(),
                occurrences: attr.occurrences,
                values: decode_vector(&attr.vectors[0])?,
                translated_values: decode_vector(&attr.vectors[1])?,
                raw_values: decode_vector(&attr.vectors[2])?,
                translated_raw_values: decode_vector(&attr.vectors[3])?,
                links: decode_vector(&attr.vectors[4])?,
                occurrence_pattern: attr.occurrence_pattern.clone(),
            });
        }
        let schema = DualSchema::from_parts_in_arena(
            t.languages.clone(),
            t.label_other.clone(),
            t.label_en.clone(),
            attributes,
            t.dual_count,
            Arc::clone(&arena),
        );

        let n = t.attrs.len();
        let lsi = (0..n * n.saturating_sub(1) / 2)
            .map(|i| read_f64_bits(bytes, t.lsi.start + i * 8))
            .collect();
        let mut evidence = Evidence::builder();
        let mut i = 0usize;
        for p in 0..n {
            for q in (p + 1)..n {
                evidence.push(
                    p,
                    q,
                    read_f64_bits(bytes, t.vsim.start + i * 8),
                    read_f64_bits(bytes, t.lsim.start + i * 8),
                );
                i += 1;
            }
        }
        let table = SimilarityTable::restored(n, lsi, evidence.finish(n));
        let vector_entries = schema.vector_entry_count();
        types.push((
            t.type_id,
            PreparedType {
                schema: Arc::new(schema),
                table: Arc::new(table),
                index: Some(Arc::new(t.index)),
                arena,
                vector_entries,
                region: None,
            },
        ));
    }
    Ok(EngineSnapshot {
        fingerprint: layout.fingerprint,
        dictionary: layout.dictionary,
        types,
    })
}

/// Decodes a v4 region into artifacts that **borrow** from it: arenas,
/// vector channels and similarity channels are views into the mapping and
/// materialize lazily per (type, channel) on first touch. All structural
/// validation happens here, eagerly.
pub(crate) fn decode_mapped(region: Arc<MappedRegion>) -> Result<EngineSnapshot, SnapshotError> {
    let _span = wiki_obs::Span::enter("snapshot_decode_mapped");
    let layout = parse_layout(region.bytes())?;
    let shared: Arc<dyn ByteRegion> = Arc::clone(&region) as Arc<dyn ByteRegion>;
    let mut types = Vec::with_capacity(layout.types.len());
    for t in layout.types {
        let arena = Arc::new(
            TermArena::from_mapped(
                Arc::clone(&shared),
                t.arena_offsets.clone(),
                t.arena_text.clone(),
                t.arena_len,
            )
            .ok_or_else(|| malformed("mapped arena violates the sorted string-table invariant"))?,
        );
        let mut attributes = Vec::with_capacity(t.attrs.len());
        for attr in &t.attrs {
            let vector = |v: &VectorLayout| -> Result<TermVector, SnapshotError> {
                TermVector::from_mapped(
                    Arc::clone(&arena),
                    Arc::clone(&shared),
                    v.ids.clone(),
                    v.weights.clone(),
                    v.len,
                )
                .ok_or_else(|| {
                    malformed("mapped term vector ids out of order or outside the arena")
                })
            };
            attributes.push(AttributeStats {
                language: attr.language.clone(),
                name: attr.name.clone(),
                occurrences: attr.occurrences,
                values: vector(&attr.vectors[0])?,
                translated_values: vector(&attr.vectors[1])?,
                raw_values: vector(&attr.vectors[2])?,
                translated_raw_values: vector(&attr.vectors[3])?,
                links: vector(&attr.vectors[4])?,
                occurrence_pattern: attr.occurrence_pattern.clone(),
            });
        }
        let schema = DualSchema::from_parts_in_arena(
            t.languages.clone(),
            t.label_other.clone(),
            t.label_en.clone(),
            attributes,
            t.dual_count,
            Arc::clone(&arena),
        );
        let table = SimilarityTable::from_mapped(
            Arc::clone(&shared),
            t.lsi.clone(),
            t.vsim.clone(),
            t.lsim.clone(),
            t.attrs.len(),
        )
        .ok_or_else(|| malformed("mapped similarity channels break the fixed-stride layout"))?;
        let vector_entries = schema.vector_entry_count();
        types.push((
            t.type_id,
            PreparedType {
                schema: Arc::new(schema),
                table: Arc::new(table),
                index: Some(Arc::new(t.index)),
                arena,
                vector_entries,
                region: Some(Arc::clone(&region)),
            },
        ));
    }
    Ok(EngineSnapshot {
        fingerprint: layout.fingerprint,
        dictionary: layout.dictionary,
        types,
    })
}

/// A v4 snapshot opened **out-of-core**: the file is memory-mapped and the
/// snapshot's artifacts borrow from the mapping instead of owning heap
/// copies. Dropping the last clone of [`region`](Self::region) (which every
/// artifact also holds through its views) unmaps the file — the eviction
/// primitive of the registry's out-of-core tier.
#[derive(Debug)]
pub struct MappedSnapshot {
    /// The decoded snapshot; its artifacts are views into
    /// [`region`](Self::region).
    pub snapshot: EngineSnapshot,
    /// The mapping the artifacts borrow from, with page-in accounting.
    pub region: Arc<MappedRegion>,
}

impl MappedSnapshot {
    /// Maps `path` and decodes it as a v4 snapshot with borrowed artifacts.
    /// The whole layout (framing, checksum, offset directory, section
    /// bounds, arena/vector invariants) is validated eagerly; lazy
    /// materialisation afterwards cannot fail. Rejects v3 files with
    /// [`SnapshotError::UnsupportedVersion`] — load those via
    /// [`EngineSnapshot::load`] or convert with
    /// [`EngineSnapshot::save_direct`].
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let _span = wiki_obs::Span::enter("snapshot_map");
        wiki_fault::check_io("snapshot.map.open")?;
        let region = Arc::new(MappedRegion::map_file(path)?);
        let snapshot = decode_mapped(Arc::clone(&region))?;
        Ok(Self { snapshot, region })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatchEngine;
    use wiki_corpus::{Dataset, SyntheticConfig};

    fn captured() -> (Dataset, EngineSnapshot) {
        let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
        let engine = MatchEngine::new(dataset.clone());
        engine.align("film").unwrap();
        engine.align("actor").unwrap();
        (dataset, EngineSnapshot::capture(&engine).unwrap())
    }

    fn assert_snapshots_bit_identical(a: &EngineSnapshot, b: &EngineSnapshot) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.types.len(), b.types.len());
        for ((id_a, pa), (id_b, pb)) in a.types.iter().zip(&b.types) {
            assert_eq!(id_a, id_b);
            assert_eq!(*pa.schema, *pb.schema);
            assert_eq!(pa.table.pairs().len(), pb.table.pairs().len());
            for (x, y) in pa.table.pairs().iter().zip(pb.table.pairs()) {
                assert_eq!((x.p, x.q), (y.p, y.q));
                assert_eq!(x.vsim.to_bits(), y.vsim.to_bits());
                assert_eq!(x.lsim.to_bits(), y.lsim.to_bits());
                assert_eq!(x.lsi.to_bits(), y.lsi.to_bits());
            }
        }
    }

    #[test]
    fn direct_bytes_round_trip_through_the_owned_decoder() {
        let (_, snapshot) = captured();
        let direct = snapshot.to_direct_bytes();
        assert_eq!(
            u32::from_le_bytes(direct[8..12].try_into().unwrap()),
            DIRECT_FORMAT_VERSION
        );
        // The generic reader accepts the v4 form and restores identical
        // artifacts (converter v4 → owned).
        let owned = EngineSnapshot::from_bytes(&direct).unwrap();
        assert_snapshots_bit_identical(&snapshot, &owned);
        // And the restored snapshot re-encodes to identical v4 bytes
        // (converter owned → v4): the two forms are lossless inverses.
        assert_eq!(owned.to_direct_bytes(), direct);
    }

    #[test]
    fn mapped_decode_is_bit_identical_to_owned_decode() {
        let (_, snapshot) = captured();
        let direct = snapshot.to_direct_bytes();
        let dir = std::env::temp_dir().join(format!("wm-direct-test-{}", std::process::id()));
        let path = dir.join("tiny.snapv4");
        snapshot.save_direct(&path).unwrap();
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(mapped.region.len(), direct.len());
        // Layout validation touches the whole file once, but nothing is
        // materialized until an artifact is read.
        assert_eq!(mapped.region.page_in_count(), 0);
        let owned = EngineSnapshot::from_bytes(&direct).unwrap();
        assert_snapshots_bit_identical(&owned, &mapped.snapshot);
        // Reading the artifacts above paged channels in lazily.
        assert!(mapped.region.page_in_count() > 0);
        for (_, prepared) in &mapped.snapshot.types {
            assert!(prepared.region.is_some());
            assert!(prepared.arena.is_mapped());
            assert!(prepared.table.is_mapped());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_misaligned_directories_are_rejected() {
        let (_, snapshot) = captured();
        let direct = snapshot.to_direct_bytes();
        // Truncations at every structural boundary.
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 10, direct.len() - 1] {
            assert!(
                matches!(
                    EngineSnapshot::from_bytes(&direct[..cut]),
                    Err(SnapshotError::Truncated)
                ),
                "cut at {cut} not detected as truncation"
            );
        }
        // A record offset pushed past the end of the file: the directory
        // promises bytes the file does not have.
        let mut oob = direct.clone();
        let rec_off_at = HEADER_LEN + 24; // first record's offset slot
        oob[rec_off_at..rec_off_at + 8].copy_from_slice(&(direct.len() as u64 + 8).to_le_bytes());
        let fixed = fix_checksum(oob);
        assert!(matches!(
            EngineSnapshot::from_bytes(&fixed),
            Err(SnapshotError::Truncated)
        ));
        // A misaligned record offset (not a multiple of 8).
        let mut misaligned = direct.clone();
        let old = u64::from_le_bytes(misaligned[rec_off_at..rec_off_at + 8].try_into().unwrap());
        misaligned[rec_off_at..rec_off_at + 8].copy_from_slice(&(old + 4).to_le_bytes());
        let fixed = fix_checksum(misaligned);
        assert!(matches!(
            EngineSnapshot::from_bytes(&fixed),
            Err(SnapshotError::Malformed(_))
        ));
        // Corruption without a checksum fix-up is caught by the checksum.
        let mut corrupt = direct;
        let mid = HEADER_LEN + (corrupt.len() - HEADER_LEN) / 2;
        corrupt[mid] ^= 0xFF;
        assert!(matches!(
            EngineSnapshot::from_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// Re-stamps the header checksum after a deliberate payload edit, so a
    /// test reaches the structural validation it targets instead of
    /// tripping the checksum first.
    fn fix_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&bytes[HEADER_LEN..]);
        bytes[28..36].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn v3_files_are_rejected_by_the_mapped_opener() {
        let (_, snapshot) = captured();
        let dir = std::env::temp_dir().join(format!("wm-direct-v3-{}", std::process::id()));
        let path = dir.join("tiny.snap");
        snapshot.save(&path).unwrap();
        assert!(matches!(
            MappedSnapshot::open(&path),
            Err(SnapshotError::UnsupportedVersion {
                found: crate::snapshot::FORMAT_VERSION,
                supported: DIRECT_FORMAT_VERSION,
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
