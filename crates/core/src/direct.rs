//! The snapshot layout — format **v5**, the one format
//! [`EngineSnapshot`] writes and reads.
//!
//! A snapshot stores what a restore reads and nothing sized by the number
//! of attribute pairs. Each type keeps its schema, its evidence rows (the
//! pairs with non-zero `vsim`/`lsim`, as compressed sparse rows) and its
//! LSI factors (the rank-k reduced vectors and singular values); a
//! restored table scores LSI from the factors exactly as a built one does.
//! The payload is built for *borrowing*:
//!
//! ```text
//! header    magic | version=5 | fingerprint | payload length | checksum
//! payload   u64 dict_off | u64 dict_len | u64 type_count
//!           type_count × (u64 rec_off | u64 rec_len)      ← offset directory
//!           dictionary bytes (length-prefixed strings — stays heap-owned)
//!           per-type records, each 8-aligned
//! record    u64 meta_len | meta | pad to 8 | data sections
//! meta      type id, languages, labels, dual count, attribute scalars,
//!           occurrence patterns, the evidence entry count, the LSI rank,
//!           and the *relative offsets* of every data section
//! sections  arena offset table ((len+1) × u32 LE)   — stride 4
//!           arena text (concatenated UTF-8)
//!           per attribute × 5 channels: ids (u32 LE, stride 4)
//!                                       weights (f64 bits LE, stride 8)
//!           evidence rows: row starts ((n+1) × u64 LE)
//!                          partners (u32 LE per entry)
//!                          vsim | lsim (f64 bits LE per entry)
//!           LSI factors: singular values (k × f64 bits LE)
//!                        reduced vectors (n × k f64 bits LE, row-major)
//! ```
//!
//! All directory offsets are **absolute byte offsets** into the file, so
//! the ranges handed to [`TermArena::from_mapped`],
//! [`TermVector::from_mapped`] and the table's evidence section index
//! straight into the region. One decoder serves both byte sources:
//! [`MappedSnapshot::open`] hands it a mapping, and
//! [`EngineSnapshot::from_bytes`] hands it heap bytes. Every float travels
//! as raw IEEE-754 bits, and the factors are reloaded through
//! [`LsiModel::from_parts`], which recomputes the norms with the fit's
//! expression — so a restored table answers every pair with the bits of
//! the table it was captured from (pinned by the `mmap_equivalence` and
//! `snapshot_roundtrip` suites).
//!
//! **Validation discipline:** `parse_layout` checks everything up front —
//! framing, checksum, directory bounds, section bounds and stride
//! alignment — and the decoder then checks arena sortedness/UTF-8, vector
//! id monotonicity and the evidence rows' shape, so the lazy
//! materialisation that happens later (on first touch of a borrowed
//! artifact) is infallible. A broken file is rejected here with a typed
//! [`SnapshotError`], never discovered mid-read.
//!
//! **What stays heap-owned:** the title dictionary, schema metadata
//! (labels, attribute names), occurrence patterns and the LSI factors —
//! all small, all needed eagerly. The arena text, the five per-attribute
//! vector channels and the evidence rows are borrowed from the region; a
//! table reads its evidence rows onto the heap on first touch.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use wiki_corpus::Language;
use wiki_linalg::LsiModel;
use wiki_text::{ByteRegion, TermArena, TermVector};
use wiki_translate::TitleDictionary;

use crate::engine::PreparedType;
use crate::mmap::MappedRegion;
use crate::schema::{AttributeStats, DualSchema};
use crate::similarity::{EvidenceSection, SimilarityTable};
use crate::snapshot::{
    checksum, Dec, Enc, EngineSnapshot, SnapshotError, FORMAT_VERSION, HEADER_LEN, MAGIC,
};

fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

fn align8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

/// Appends the raw little-endian bits of `values` to an 8-aligned
/// `sections`, returning where they start.
fn push_f64s(sections: &mut Vec<u8>, values: impl IntoIterator<Item = f64>) -> usize {
    let rel = sections.len();
    for value in values {
        sections.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    rel
}

fn encode_pattern(enc: &mut Enc, pattern: &[bool]) {
    // Bit-packed; the length is the schema's dual count, known to the
    // decoder, so only the words are written.
    let words = pattern.len().div_ceil(64);
    let mut packed = vec![0u64; words];
    for (j, present) in pattern.iter().enumerate() {
        if *present {
            packed[j / 64] |= 1u64 << (j % 64);
        }
    }
    for word in packed {
        enc.u64(word);
    }
}

fn decode_pattern(dec: &mut Dec<'_>, len: usize) -> Result<Vec<bool>, SnapshotError> {
    let words = len.div_ceil(64);
    // The words are about to be read from the payload; bounding the
    // allocation by the bytes actually present keeps a corrupted
    // `dual_count` from triggering a huge pre-allocation.
    if words.saturating_mul(8) > dec.remaining() {
        return Err(SnapshotError::Truncated);
    }
    let mut pattern = vec![false; len];
    for w in 0..words {
        let word = dec.u64()?;
        if w + 1 == words && !len.is_multiple_of(64) && word >> (len % 64) != 0 {
            return Err(SnapshotError::Malformed(
                "occurrence pattern has bits beyond the dual count".to_string(),
            ));
        }
        for (j, slot) in pattern[w * 64..].iter_mut().take(64).enumerate() {
            *slot = word & (1u64 << j) != 0;
        }
    }
    Ok(pattern)
}

// ---------------------------------------------------------------------------
// Encoding: artifacts → v5 bytes.

/// The `(id, weight)` entries of a vector, expressed in the schema arena's
/// ids. Schema vectors are built on the schema arena, so the id fast path
/// is the norm; a vector moved off it (e.g. a `pub` field mutated through
/// the copy-on-write `add` API) is re-interned term by term rather than
/// having foreign ids written verbatim, which would encode a checksum-valid
/// file that decodes to the *wrong terms*.
///
/// # Panics
/// Panics when such a detached vector contains a term the schema arena does
/// not know: the snapshot could not represent it, and a loud failure at
/// capture time beats a silently wrong file.
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

/// Encodes one type's artifacts as a v5 record:
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
    // The table: its evidence rows, then its LSI factors.
    let table = &prepared.table;
    let n = table.attribute_count();
    let (starts, partners, vsim, lsim) = table.evidence_rows();
    let starts_rel = sections.len();
    for &start in starts {
        sections.extend_from_slice(&(start as u64).to_le_bytes());
    }
    let partners_rel = sections.len();
    for q in partners {
        sections.extend_from_slice(&q.to_le_bytes());
    }
    pad8(&mut sections);
    let vsim_rel = push_f64s(&mut sections, vsim.iter().copied());
    let lsim_rel = push_f64s(&mut sections, lsim.iter().copied());
    let model = table.lsi_model();
    assert_eq!(model.len(), n, "the LSI model covers every attribute");
    let singular_rel = push_f64s(&mut sections, model.singular_values().iter().copied());
    let vectors_rel = push_f64s(
        &mut sections,
        (0..n).flat_map(|i| model.vector(i).iter().copied()),
    );

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
    meta.u64(partners.len() as u64);
    for rel in [starts_rel, partners_rel, vsim_rel, lsim_rel] {
        meta.u64(rel as u64);
    }
    meta.u64(model.rank() as u64);
    meta.u64(singular_rel as u64);
    meta.u64(vectors_rel as u64);
    let meta = meta.0;

    let mut record = Vec::with_capacity(8 + align8(meta.len()) + sections.len());
    record.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    record.extend_from_slice(&meta);
    pad8(&mut record);
    record.extend_from_slice(&sections);
    record
}

/// Serializes a snapshot into the v5 layout, header included.
pub(crate) fn encode(snapshot: &EngineSnapshot) -> Vec<u8> {
    // Dictionary section: sorted entries for a canonical byte stream — it
    // is decoded eagerly.
    let mut dict = Enc::new();
    dict.str(snapshot.dictionary.source().code());
    dict.str(snapshot.dictionary.target().code());
    let mut entries: Vec<(&str, &str)> = snapshot.dictionary.entries().collect();
    entries.sort_unstable();
    dict.u64(entries.len() as u64);
    for (key, value) in entries {
        dict.str(key);
        dict.str(value);
    }
    let dict = dict.0;

    let records: Vec<Vec<u8>> = snapshot
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
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&snapshot.fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// Layout parsing.

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
    entries: usize,
    starts: Range<usize>,
    partners: Range<usize>,
    vsim: Range<usize>,
    lsim: Range<usize>,
    rank: usize,
    singular_values: Range<usize>,
    vectors: Range<usize>,
}

struct Layout {
    fingerprint: u64,
    dictionary: TitleDictionary,
    types: Vec<TypeLayout>,
}

fn malformed(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(detail.into())
}

/// Validates the whole file — framing, version, checksum, offset
/// directory, section bounds and stride alignment — and returns the
/// absolute byte ranges of every section plus the eagerly-decoded small
/// parts.
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
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
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
    let bytes_of = |count: usize, width: usize| {
        count
            .checked_mul(width)
            .ok_or_else(|| malformed(format!("section of {count} elements overflows")))
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
    let offsets_bytes = bytes_of(arena_len.saturating_add(1), 4)?;
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
            let ids = section(m.scalar()?, bytes_of(len, 4)?, 4)?;
            let weights = section(m.scalar()?, bytes_of(len, 8)?, 8)?;
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
    let entries = m.scalar()?;
    let starts = section(m.scalar()?, bytes_of(n + 1, 8)?, 8)?;
    let partners = section(m.scalar()?, bytes_of(entries, 4)?, 4)?;
    let vsim = section(m.scalar()?, bytes_of(entries, 8)?, 8)?;
    let lsim = section(m.scalar()?, bytes_of(entries, 8)?, 8)?;
    let rank = m.scalar()?;
    let singular_values = section(m.scalar()?, bytes_of(rank, 8)?, 8)?;
    let vectors = section(m.scalar()?, bytes_of(bytes_of(n, rank)?, 8)?, 8)?;
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
        entries,
        starts,
        partners,
        vsim,
        lsim,
        rank,
        singular_values,
        vectors,
    })
}

// ---------------------------------------------------------------------------
// Decoding: v5 bytes → artifacts borrowing from their region.

/// The `f64`s whose raw little-endian bits fill `range` of `bytes`.
fn f64s(bytes: &[u8], range: Range<usize>) -> Vec<f64> {
    bytes[range]
        .chunks_exact(8)
        .map(|chunk| f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8-byte field"))))
        .collect()
}

/// Decodes a v5 region into artifacts that **borrow** from it: arenas,
/// vector channels and evidence rows are views into the region and
/// materialize lazily on first touch; the LSI factors are read onto the
/// heap here. All structural validation happens here, eagerly. `mapped`
/// is the region again when it is a file mapping, so the prepared
/// artifacts can account for it.
pub(crate) fn decode(
    region: Arc<dyn ByteRegion>,
    mapped: Option<Arc<MappedRegion>>,
) -> Result<EngineSnapshot, SnapshotError> {
    let layout = parse_layout(region.bytes())?;
    assemble(region, layout, mapped)
}

/// [`decode`] over a heap copy of `bytes`, made only once the layout has
/// validated, so a rejected input costs no copy.
pub(crate) fn decode_copy(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
    let layout = parse_layout(bytes)?;
    assemble(Arc::new(bytes.to_vec()), layout, None)
}

/// Builds the artifacts of a validated `layout` over the region it was
/// parsed from.
fn assemble(
    region: Arc<dyn ByteRegion>,
    layout: Layout,
    mapped: Option<Arc<MappedRegion>>,
) -> Result<EngineSnapshot, SnapshotError> {
    let bytes = region.bytes();
    let mut types = Vec::with_capacity(layout.types.len());
    for t in layout.types {
        let arena = Arc::new(
            TermArena::from_mapped(
                Arc::clone(&region),
                t.arena_offsets.clone(),
                t.arena_text.clone(),
                t.arena_len,
            )
            .ok_or_else(|| malformed("arena violates the sorted string-table invariant"))?,
        );
        let mut attributes = Vec::with_capacity(t.attrs.len());
        for attr in t.attrs {
            let vector = |v: &VectorLayout| -> Result<TermVector, SnapshotError> {
                TermVector::from_mapped(
                    Arc::clone(&arena),
                    Arc::clone(&region),
                    v.ids.clone(),
                    v.weights.clone(),
                    v.len,
                )
                .ok_or_else(|| malformed("term vector ids out of order or outside the arena"))
            };
            attributes.push(AttributeStats {
                values: vector(&attr.vectors[0])?,
                translated_values: vector(&attr.vectors[1])?,
                raw_values: vector(&attr.vectors[2])?,
                translated_raw_values: vector(&attr.vectors[3])?,
                links: vector(&attr.vectors[4])?,
                language: attr.language,
                name: attr.name,
                occurrences: attr.occurrences,
                occurrence_pattern: attr.occurrence_pattern,
            });
        }
        let schema = DualSchema::from_parts_in_arena(
            t.languages,
            t.label_other,
            t.label_en,
            attributes,
            t.dual_count,
            Arc::clone(&arena),
        );
        let n = schema.len();
        let evidence = EvidenceSection::new(
            Arc::clone(&region),
            n,
            t.entries,
            t.starts,
            t.partners,
            t.vsim,
            t.lsim,
        )
        .ok_or_else(|| malformed("evidence rows out of order, out of range or all zero"))?;
        let flat = f64s(bytes, t.vectors);
        let vectors = if t.rank == 0 {
            vec![Vec::new(); n]
        } else {
            flat.chunks_exact(t.rank).map(<[f64]>::to_vec).collect()
        };
        let model = LsiModel::from_parts(vectors, f64s(bytes, t.singular_values))
            .ok_or_else(|| malformed("LSI vectors do not match the rank"))?;
        let lsi = SimilarityTable::factors(&schema, model);
        let table = SimilarityTable::restored(n, evidence, lsi);
        let vector_entries = schema.vector_entry_count();
        types.push((
            t.type_id,
            PreparedType {
                schema: Arc::new(schema),
                table: Arc::new(table),
                arena,
                vector_entries,
                region: mapped.clone(),
            },
        ));
    }
    Ok(EngineSnapshot {
        fingerprint: layout.fingerprint,
        dictionary: layout.dictionary,
        types,
    })
}

/// A snapshot opened **out-of-core**: the file is memory-mapped and the
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
    /// Maps `path` and decodes it with borrowed artifacts. The whole layout
    /// (framing, checksum, offset directory, section bounds, arena, vector
    /// and evidence invariants) is validated eagerly; lazy materialisation
    /// afterwards cannot fail. A file of any other format version is
    /// rejected with [`SnapshotError::UnsupportedVersion`].
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let _span = wiki_obs::Span::enter("snapshot_map");
        wiki_fault::check_io("snapshot.map.open")?;
        let region = Arc::new(MappedRegion::map_file(path)?);
        let snapshot = {
            let _span = wiki_obs::Span::enter("snapshot_decode_mapped");
            decode(
                Arc::clone(&region) as Arc<dyn ByteRegion>,
                Some(Arc::clone(&region)),
            )?
        };
        crate::snapshot::count_load();
        Ok(Self { snapshot, region })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatchEngine;
    use crate::similarity::ComputeMode;
    use wiki_corpus::{Dataset, SyntheticConfig};

    fn captured() -> (Dataset, EngineSnapshot) {
        let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
        let engine = MatchEngine::new(dataset.clone());
        engine.align("film").unwrap();
        engine.align("actor").unwrap();
        (dataset, EngineSnapshot::capture(&engine))
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
        let bytes = snapshot.to_bytes();
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            FORMAT_VERSION
        );
        // The heap-bytes reader restores identical artifacts ...
        let owned = EngineSnapshot::from_bytes(&bytes).unwrap();
        assert_snapshots_bit_identical(&snapshot, &owned);
        // ... which re-encode to identical bytes.
        assert_eq!(owned.to_bytes(), bytes);
        // A `Dense` session, whose tables keep reference scores beside the
        // fitted model, captures to the same bytes as the pruned default.
        let dense = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny()))
            .compute_mode(ComputeMode::Dense)
            .build();
        dense.align("film").unwrap();
        dense.align("actor").unwrap();
        assert_eq!(EngineSnapshot::capture(&dense).to_bytes(), bytes);
    }

    #[test]
    fn mapped_decode_is_bit_identical_to_owned_decode() {
        let (_, snapshot) = captured();
        let bytes = snapshot.to_bytes();
        let dir = std::env::temp_dir().join(format!("wm-direct-test-{}", std::process::id()));
        let path = dir.join("tiny.snap");
        snapshot.save(&path).unwrap();
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(mapped.region.len(), bytes.len());
        // Layout validation touches the whole file once, but nothing is
        // materialized until an artifact is read.
        assert_eq!(mapped.region.page_in_count(), 0);
        let owned = EngineSnapshot::from_bytes(&bytes).unwrap();
        assert_snapshots_bit_identical(&owned, &mapped.snapshot);
        // Reading the artifacts above paged evidence and vectors in lazily.
        assert!(mapped.region.page_in_count() > 0);
        for (_, prepared) in &mapped.snapshot.types {
            assert!(prepared.region.is_some());
            assert!(prepared.arena.is_mapped());
            assert!(prepared.table.is_mapped());
        }
        for (_, prepared) in &owned.types {
            assert!(prepared.region.is_none());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_misaligned_directories_are_rejected() {
        let (_, snapshot) = captured();
        let bytes = snapshot.to_bytes();
        // Truncations at every structural boundary.
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            assert!(
                matches!(
                    EngineSnapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::Truncated)
                ),
                "cut at {cut} not detected as truncation"
            );
        }
        // A record offset pushed past the end of the file: the directory
        // promises bytes the file does not have.
        let mut oob = bytes.clone();
        let rec_off_at = HEADER_LEN + 24; // first record's offset slot
        oob[rec_off_at..rec_off_at + 8].copy_from_slice(&(bytes.len() as u64 + 8).to_le_bytes());
        let fixed = fix_checksum(oob);
        assert!(matches!(
            EngineSnapshot::from_bytes(&fixed),
            Err(SnapshotError::Truncated)
        ));
        // A misaligned record offset (not a multiple of 8).
        let mut misaligned = bytes.clone();
        let old = u64::from_le_bytes(misaligned[rec_off_at..rec_off_at + 8].try_into().unwrap());
        misaligned[rec_off_at..rec_off_at + 8].copy_from_slice(&(old + 4).to_le_bytes());
        let fixed = fix_checksum(misaligned);
        assert!(matches!(
            EngineSnapshot::from_bytes(&fixed),
            Err(SnapshotError::Malformed(_))
        ));
        // Corruption without a checksum fix-up is caught by the checksum.
        let mut corrupt = bytes;
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
        // Files stamped with any retired version — the compact v3 stream
        // and the dense v4 layout included — are refused by both readers
        // before the payload is parsed, so the registry rebuilds them.
        let (_, snapshot) = captured();
        let dir = std::env::temp_dir().join(format!("wm-direct-v3-{}", std::process::id()));
        let path = dir.join("tiny.snap");
        for retired in 1..FORMAT_VERSION {
            let mut bytes = snapshot.to_bytes();
            bytes[8..12].copy_from_slice(&retired.to_le_bytes());
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            let unsupported = |result: Result<EngineSnapshot, SnapshotError>| {
                matches!(
                    result,
                    Err(SnapshotError::UnsupportedVersion { found, supported: FORMAT_VERSION })
                        if found == retired
                )
            };
            assert!(unsupported(MappedSnapshot::open(&path).map(|m| m.snapshot)));
            assert!(unsupported(EngineSnapshot::from_bytes(&bytes)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
