//! Single-cell signature trails answered from a table.
//!
//! A stuck-at or transition fault at cell `(w, b)` changes only bit `b` of
//! word `w`, and how it misbehaves at each read depends only on its kind,
//! the content bit it starts from and the op's data at bit `b` — the same
//! at every address. So one run of the session on a one-word memory with
//! the fault on every bit, per kind and content bit, records every read's
//! error word for every fault of that kind ([`CellTrailTable::new`]).
//!
//! MISR compaction is linear over GF(2) (see
//! [`crate::run_scheme_session_local`]). Element `e` reads each word
//! `reads_e` times in a row, the word at slot `s` of its sweep at stream
//! positions `reads_e·s + j`; with `r_e` the polynomial whose coefficient
//! of `x^(reads_e−1−j)` is bit `b` of read `j`'s error word, the fault
//! adds `C_e = x^b · r_e · x^(reads_e·(words−1−s))` to the signature at
//! the end of the element. A test-phase stage signature follows from the
//! one before by Horner's rule, `S_e = S_(e−1) · x^(reads_e·words) + C_e`.
//! The predicted signature is only needed at the end of its stream, so it
//! is summed by element class instead: elements of one direction and read
//! count share the word's power `x^(reads·(words−1−s))`, and what
//! multiplies it is a per-fault constant ([`CellTrailTable::trails`]).

use twm_mem::{
    AddressOrder, BitAddress, BitStorage, Fault, FaultSet, FaultyMemory, MemoryConfig, Transition,
    Word,
};

use crate::flow::{reads_per_address, sweep_local, ErrorSink, Stream};
use crate::misr::PowerTable;
use crate::{LoweredElement, SessionReference};

/// The four single-cell fault kinds, in table order: SA0, SA1, TF↑, TF↓.
const KINDS: usize = 4;

/// Multiplication by a fixed `m mod P` for one byte `i` of the
/// multiplicand: `v · x^(8i) · m` at `v` and `v · x^(8i+4) · m` at
/// `16 + v`, for every `v < 16`. A multiplier is one table per byte of the
/// width ([`push_multiplier`], [`times`]).
type ByteTable = [u128; 32];

/// Every stuck-at and transition fault's signature trail under one
/// [`SessionReference`], answered without sweeping the memory.
///
/// A trail equals [`crate::run_scheme_session_staged`]'s on a memory built
/// with the fault and the reference content (property-tested in
/// `tests/cell_trail_table.rs`). Building the table runs eight one-word
/// sessions. Answering a fault costs one table multiplication per
/// test-phase element and per class of prediction-phase elements, plus a
/// few lookups per read — O((elements + classes) · width / 4) word
/// operations, independent of the memory size.
#[derive(Debug, Clone)]
pub struct CellTrailTable {
    powers: PowerTable,
    image: BitStorage,
    /// The fault-free trail.
    trail: Vec<Word>,
    /// The distinct placements of the elements' reads.
    classes: Vec<Class>,
    /// The classes of the elements compacted into the predicted
    /// signature.
    predicted_classes: Vec<usize>,
    /// Per kind, content bit and fault bit (in that order), one key per
    /// predicted class: the predicted signature's error is the sum over
    /// those classes of the class's power at the word times its key.
    keys: Vec<u128>,
    /// The test elements, in order.
    tested: Vec<Stage>,
    /// Per kind, content bit and fault bit `b` (in that order), a block of
    /// `code_len` bytes: from a stage's [`Stage::code`], bit `i` is set
    /// when `x^(b+i)` times the stage's class power is in its term — when
    /// bit `b` of the error word of read `reads − 1 − i` is set.
    codes: Vec<u8>,
    code_len: usize,
    /// Multiplication by `x^(reads·words)`, the span of an element, for
    /// each distinct `reads`.
    spans: Vec<ByteTable>,
}

/// Elements that place a word's reads alike: same direction, same reads
/// per word.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Class {
    /// 1 for a descending element (slot `words − 1 − w`), 0 otherwise
    /// (slot `w`).
    descending: usize,
    reads: usize,
    /// Where its terms `x^i · x^(reads·(words−1−slot))`, `i < width +
    /// reads`, start in a [`Walk`]'s buffer.
    terms: usize,
}

/// One element's share of one stream.
#[derive(Debug, Clone)]
struct Stage {
    reads: usize,
    /// Its [`Class`] in [`CellTrailTable::classes`].
    class: usize,
    /// Its class's [`Class::terms`].
    terms: usize,
    /// Where its error words start in a block of one-word stream reads.
    row: usize,
    /// Where its bits start in a fault's block of [`CellTrailTable::codes`].
    code: usize,
    /// Where its multiplier `x^(reads·words)` starts in
    /// [`CellTrailTable::spans`].
    span: usize,
}

impl CellTrailTable {
    /// Runs the reference's session once per kind (SA0, SA1, TF↑, TF↓)
    /// and content bit on a one-word memory with the fault on every bit:
    /// the prediction phase, the test phase and the stuck-at pin the
    /// memory applies when it is loaded, as a full session sees them.
    /// The one-word memory has the reference's width and every fault
    /// fits it, so these sessions cannot fail.
    #[must_use]
    pub fn new(reference: &SessionReference) -> Self {
        let powers = PowerTable::new(&reference.misr);
        let width = powers.width();
        let bytes = width.div_ceil(8);
        let words = reference.image.words() as u64;
        let prediction = reference.prediction.as_ref();
        let test_elements = reference.test.elements();

        // Stages of the predicted stream, then of the tested one; their
        // reads are laid out in that order in a block of one-word stream
        // reads, and their codes likewise.
        let mut classes: Vec<Class> = Vec::new();
        let mut spans = Vec::new();
        let mut span_of: Vec<(usize, usize)> = Vec::new();
        let (mut row, mut code) = (0, 0);
        let mut stages = |elements: &[LoweredElement]| {
            elements
                .iter()
                .map(|element| {
                    let reads = reads_per_address(element) as usize;
                    let descending = usize::from(element.order == AddressOrder::Descending);
                    let class = classes
                        .iter()
                        .position(|class| class.descending == descending && class.reads == reads)
                        .unwrap_or_else(|| {
                            let terms = classes
                                .last()
                                .map_or(0, |last| last.terms + width + last.reads);
                            classes.push(Class {
                                descending,
                                reads,
                                terms,
                            });
                            classes.len() - 1
                        });
                    let span = match span_of.iter().find(|(of, _)| *of == reads) {
                        Some(&(_, at)) => at,
                        None => {
                            let at = spans.len();
                            push_multiplier(
                                &mut spans,
                                &powers,
                                powers.power(reads as u64 * words),
                            );
                            span_of.push((reads, at));
                            at
                        }
                    };
                    let stage = Stage {
                        reads,
                        class,
                        terms: classes[class].terms,
                        row,
                        code,
                        span,
                    };
                    row += reads;
                    code += reads.div_ceil(8);
                    stage
                })
                .collect::<Vec<_>>()
        };
        let predicted = stages(prediction.map_or(test_elements, |test| test.elements()));
        let tested = stages(test_elements);
        let (row_len, code_len) = (row, code);
        let predicted_len = predicted.iter().map(|stage| stage.reads).sum();

        // Per kind and content bit, every read's error word, and from
        // them each fault bit's codes.
        let config = MemoryConfig::new(1, width).expect("the reference's width is valid");
        let mut rows = vec![0u128; row_len];
        let mut codes = vec![0u8; KINDS * 2 * width * code_len];
        for block in 0..KINDS * 2 {
            let faults = (0..width).map(|bit| cell_fault(block / 2, BitAddress::new(0, bit)));
            let mut memory = FaultyMemory::with_faults(config, FaultSet::from_faults(faults))
                .expect("every bit of a one-word memory is in range");
            let fill = if block % 2 == 1 {
                Word::ones(width)
            } else {
                Word::zeros(width)
            };
            memory.fill(fill).expect("the fill has the memory's width");
            rows.fill(0);
            let (predicted_rows, tested_rows) = rows.split_at_mut(predicted_len);
            let mut recorder = Recorder {
                streams: [predicted_rows, tested_rows],
            };
            sweep_local(
                prediction,
                &reference.test,
                1,
                &mut memory,
                &[0],
                &[fill],
                &mut recorder,
            )
            .expect("a one-word sweep of word 0 at the reference's width succeeds");
            for bit in 0..width {
                let codes = &mut codes[(block * width + bit) * code_len..][..code_len];
                for stage in predicted.iter().chain(&tested) {
                    let errors = &rows[stage.row..stage.row + stage.reads];
                    for (i, &error) in errors.iter().rev().enumerate() {
                        codes[stage.code + i / 8] |= u8::from(error >> bit & 1 == 1) << (i % 8);
                    }
                }
            }
        }

        // The predicted error is `Σ_e C_e · M_e`, `M_e` carrying the end of
        // element `e` to the end of the stream: per class, the class's
        // power at the word times `Σ_e Σ_i code_i · x^(b+i) · M_e` over its
        // elements — the key.
        let mut predicted_classes: Vec<usize> = Vec::new();
        for stage in &predicted {
            if !predicted_classes.contains(&stage.class) {
                predicted_classes.push(stage.class);
            }
        }
        let mut carries = Vec::new();
        let mut carry = 1u128;
        for stage in predicted.iter().rev() {
            push_multiplier(&mut carries, &powers, carry);
            carry = times(&spans[stage.span..][..bytes], carry);
        }
        let carries: Vec<&[ByteTable]> = carries.chunks_exact(bytes).rev().collect();
        // `x^i mod P` for every `i < width + reads`.
        let most_reads = predicted.iter().map(|stage| stage.reads).max().unwrap_or(0);
        let mut x = 1u128;
        let xs: Vec<u128> = (0..width + most_reads)
            .map(|_| {
                let power = x;
                x = powers.times_x(x);
                power
            })
            .collect();
        let mut keys = Vec::with_capacity(KINDS * 2 * width * predicted_classes.len());
        for at in 0..KINDS * 2 * width {
            let (bit, codes) = (at % width, &codes[at * code_len..][..code_len]);
            let mut sums = vec![0u128; predicted_classes.len()];
            for (stage, carry) in predicted.iter().zip(&carries) {
                let term = coded_sum(&xs[bit..bit + stage.reads], &codes[stage.code..]);
                let class = predicted_classes.iter().position(|&c| c == stage.class);
                sums[class.expect("listed above")] ^= times(carry, term);
            }
            keys.extend(sums);
        }
        Self {
            powers,
            image: reference.image.clone(),
            trail: reference.trail.clone(),
            classes,
            predicted_classes,
            keys,
            tested,
            codes,
            code_len,
            spans,
        }
    }

    /// Bytes of one packed trail: [`Word::packed_len`] bytes per
    /// signature, signatures in session order.
    #[must_use]
    pub fn trail_bytes(&self) -> usize {
        self.trail.len() * Word::packed_len(self.powers.width())
    }

    /// Writes the trail of each stuck-at or transition fault inside the
    /// memory, as a single-fault injection, into the fault's slot of
    /// `out` — slot `i` is the [`CellTrailTable::trail_bytes`] bytes at
    /// `i · trail_bytes`, each signature [`Word::write_packed`] — and
    /// returns the positions of every other fault (a coupling fault, or a
    /// cell outside the memory), whose slots it leaves untouched.
    ///
    /// The faults are walked grouped by word, ascending, and each word's
    /// terms are computed once. They rest on `x^(words−1−w)` and `x^w`,
    /// whose exponents grow in opposite directions along the walk: each
    /// steps from its value at the neighbouring word (`x^(words−1−w)` in
    /// a backward pass over the words) by `x^Δ`, a few shifts or one
    /// multiplication per power of two in `Δ`. Beyond `out`, a batch holds
    /// one power per word it touches and one buffer of terms and
    /// multipliers per class, whatever the memory size.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `faults.len() · trail_bytes` bytes long.
    pub fn trails(&self, faults: &[Fault], out: &mut [u8]) -> Vec<usize> {
        let stride = self.trail_bytes();
        assert_eq!(out.len(), faults.len() * stride, "one trail slot per fault");
        let mut unanswered = Vec::new();
        let mut queries: Vec<Query> = faults
            .iter()
            .enumerate()
            .filter_map(|(at, fault)| {
                let Some((kind, cell)) = self.decode(fault) else {
                    unanswered.push(at);
                    return None;
                };
                Some(Query {
                    at,
                    word: cell.word,
                    kind,
                    bit: cell.bit,
                })
            })
            .collect();
        // Stable, so runs already in word order merge in linear time.
        queries.sort_by_key(|query| query.word);
        let groups: Vec<&[Query]> = queries.chunk_by(|a, b| a.word == b.word).collect();
        let last = self.image.words() as u64 - 1;
        let mut ascending = vec![0u128; groups.len()];
        let mut stepper = Stepper::default();
        for (power, group) in ascending.iter_mut().zip(&groups).rev() {
            *power = stepper.to(&self.powers, last - group[0].word as u64);
        }

        let mut walk = Walk::new(self);
        let mut stepper = Stepper::default();
        for (group, ascending) in groups.iter().zip(ascending) {
            let word = group[0].word;
            walk.seek(self, [ascending, stepper.to(&self.powers, word as u64)]);
            let content = self.image.word_bits(word);
            for query in *group {
                self.answer(
                    query,
                    content,
                    &walk,
                    &mut out[query.at * stride..][..stride],
                );
            }
        }
        unanswered
    }

    /// A fault's table kind and cell, if the table answers it.
    fn decode(&self, fault: &Fault) -> Option<(usize, BitAddress)> {
        let (kind, cell) = match *fault {
            Fault::StuckAt { cell, value } => (usize::from(value), cell),
            Fault::TransitionFault { cell, direction } => {
                (2 + usize::from(direction == Transition::Falling), cell)
            }
            _ => return None,
        };
        (cell.word < self.image.words() && cell.bit < self.powers.width()).then_some((kind, cell))
    }

    /// Writes the trail of `query`, a fault of the word `walk` stands at,
    /// whose content is `content`, into `out`.
    fn answer(&self, query: &Query, content: u128, walk: &Walk, out: &mut [u8]) {
        let width = self.powers.width();
        let bytes = width.div_ceil(8);
        // The fault's block of keys and codes: its kind, content bit and
        // bit.
        let block =
            (query.kind * 2 + usize::from(content >> query.bit & 1 == 1)) * width + query.bit;
        let classes = self.predicted_classes.len();
        let keys = &self.keys[block * classes..][..classes];
        let codes = &self.codes[block * self.code_len..][..self.code_len];
        let terms = &walk.terms[query.bit..];
        let predicted = keys
            .iter()
            .zip(walk.predicted.chunks_exact(bytes))
            .fold(0, |sum, (&key, power)| sum ^ times(power, key));
        let mut sum = 0u128;
        let tested = self.tested.iter().map(|stage| {
            sum = times(&self.spans[stage.span..][..bytes], sum)
                ^ coded_sum(&terms[stage.terms..][..stage.reads], &codes[stage.code..]);
            sum
        });
        for ((error, fault_free), slot) in std::iter::once(predicted)
            .chain(tested)
            .zip(&self.trail)
            .zip(out.chunks_exact_mut(bytes))
        {
            Word::from_bits(fault_free.to_bits() ^ error, width)
                .expect("the MISR width is valid")
                .write_packed(slot);
        }
    }
}

/// A fault [`CellTrailTable::trails`] answers: its place in the batch,
/// its cell and its table kind.
struct Query {
    at: usize,
    word: usize,
    kind: usize,
    bit: usize,
}

/// Appends the tables of multiplier `m` (see [`ByteTable`]).
fn push_multiplier(tables: &mut Vec<ByteTable>, powers: &PowerTable, m: u128) {
    // `x^(4n) · m` for the multiplicand's nibble `n` at hand.
    let mut power = m;
    for _ in 0..powers.width().div_ceil(8) {
        let mut table = [0u128; 32];
        for half in table.chunks_exact_mut(16) {
            for i in 0..4 {
                let bit = 1 << i;
                for v in 0..bit {
                    half[bit + v] = half[v] ^ power;
                }
                power = powers.times_x(power);
            }
        }
        tables.push(table);
    }
}

/// `value · m mod P` from the tables of multiplier `m`.
#[inline(always)]
fn times(tables: &[ByteTable], value: u128) -> u128 {
    let bytes = value.to_le_bytes();
    let mut product = 0u128;
    for (table, &byte) in tables.iter().zip(&bytes) {
        product ^= table[usize::from(byte & 15)] ^ table[16 + usize::from(byte >> 4)];
    }
    product
}

/// The sum of the `powers[i]` whose bit `i` is set in `codes`.
#[inline(always)]
fn coded_sum(powers: &[u128], codes: &[u8]) -> u128 {
    let mut sum = 0u128;
    for (i, &power) in powers.iter().enumerate() {
        sum ^= power & 0u128.wrapping_sub(u128::from(codes[i / 8] >> (i % 8) & 1));
    }
    sum
}

/// `x^k mod P` for a growing `k`, each step taken from the one before.
#[derive(Default)]
struct Stepper {
    power: u128,
    /// `k`, `None` before the first step.
    exponent: Option<u64>,
}

impl Stepper {
    /// `x^target mod P`: stepped forward from the last power when
    /// `target` is not below its exponent, else read from the power
    /// table.
    fn to(&mut self, powers: &PowerTable, target: u64) -> u128 {
        self.power = match self.exponent {
            Some(from) if from <= target => powers.shift(self.power, target - from),
            _ => powers.power(target),
        };
        self.exponent = Some(target);
        self.power
    }
}

/// A [`CellTrailTable::trails`] walk's state at its current word.
struct Walk {
    /// Per class, from its offset: `x^i · x^(reads·(words−1−slot))`.
    terms: Vec<u128>,
    /// Per predicted class, its power `x^(reads·(words−1−slot))` as a
    /// multiplier.
    predicted: Vec<ByteTable>,
}

impl Walk {
    fn new(table: &CellTrailTable) -> Self {
        let len = table
            .classes
            .last()
            .map_or(0, |last| last.terms + table.powers.width() + last.reads);
        Self {
            terms: vec![0; len],
            predicted: Vec::new(),
        }
    }

    /// Moves to the word whose `x^(words−1−slot)` are `bases`, indexed by
    /// [`Class::descending`].
    fn seek(&mut self, table: &CellTrailTable, bases: [u128; 2]) {
        let powers = &table.powers;
        for class in &table.classes {
            let base = bases[class.descending];
            let mut term = base;
            for _ in 1..class.reads {
                term = powers.mul(term, base);
            }
            for slot in &mut self.terms[class.terms..class.terms + powers.width() + class.reads] {
                *slot = term;
                term = powers.times_x(term);
            }
        }
        self.predicted.clear();
        for &class in &table.predicted_classes {
            let power = self.terms[table.classes[class].terms];
            push_multiplier(&mut self.predicted, powers, power);
        }
    }
}

/// The one-word sweep's sink: every read's error word, by stream
/// position (a one-word memory's position is its read's index).
struct Recorder<'a> {
    streams: [&'a mut [u128]; 2],
}

impl ErrorSink for Recorder<'_> {
    fn error(&mut self, stream: Stream, position: u64, error: Word) {
        self.streams[stream as usize][position as usize] = error.to_bits();
    }

    fn element_end(&mut self, _stage: usize, _end: u64) {}
}

/// The fault of table kind `kind` at `cell`.
fn cell_fault(kind: usize, cell: BitAddress) -> Fault {
    match kind {
        0 | 1 => Fault::stuck_at(cell, kind == 1),
        2 => Fault::transition(cell, Transition::Rising),
        _ => Fault::transition(cell, Transition::Falling),
    }
}
