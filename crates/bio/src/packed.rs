//! Bit-packed sequence views: the wire format of the alignment engine.
//!
//! The Race Logic cell compares two symbol codes each cycle (paper
//! Fig. 4b: an XNOR pair per bit plus an AND). Software that wants to
//! match the hardware's economy packs each symbol into its minimal
//! `⌈log₂ N_SS⌉`-bit code — 2 bits per DNA base, 32 bases per `u64`
//! word — and the match test becomes a branch-free packed-code compare.
//!
//! [`PackedSeq`] is that representation: an immutable, densely packed
//! copy of a [`Seq`] with O(1) random access to symbol codes and a bulk
//! [`PackedSeq::unpack_into`] for kernels that want a flat byte view in
//! reused scratch memory (e.g. `race_logic::engine::AlignEngine`).

use std::marker::PhantomData;

use crate::alphabet::Symbol;
use crate::Seq;

/// Why a word buffer was rejected by [`PackedSeq::try_from_words`]: the
/// typed-error counterpart of [`PackedSeq::from_codes`]'s panics, for
/// deserializers reconstructing packed sequences from untrusted bytes
/// (e.g. `race_logic::store`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedWordsError {
    /// `words.len()` does not match `⌈len / symbols_per_word⌉`.
    WordCountMismatch {
        /// Symbols the caller claimed.
        len: usize,
        /// Words the buffer holds.
        got: usize,
        /// Words a `len`-symbol sequence needs.
        want: usize,
    },
    /// A symbol code at `index` is outside the alphabet
    /// (`code >= S::COUNT`).
    CodeOutOfRange {
        /// The offending symbol position.
        index: usize,
        /// The out-of-range code.
        code: u8,
    },
    /// Bits past the last symbol of the last word are not zero — the
    /// buffer was not produced by this packer (or was corrupted).
    DirtyPadding,
}

impl std::fmt::Display for PackedWordsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedWordsError::WordCountMismatch { len, got, want } => write!(
                f,
                "packed word count mismatch: {len} symbols need {want} words, got {got}"
            ),
            PackedWordsError::CodeOutOfRange { index, code } => {
                write!(f, "symbol code {code} at position {index} is out of range")
            }
            PackedWordsError::DirtyPadding => {
                write!(f, "non-zero padding bits after the last symbol")
            }
        }
    }
}

impl std::error::Error for PackedWordsError {}

/// A bit-packed, immutable view of a sequence: `S::bits()` bits per
/// symbol, little-endian within each `u64` word.
///
/// # Examples
///
/// ```
/// use rl_bio::{PackedSeq, Seq, alphabet::Dna};
///
/// let s: Seq<Dna> = "ACTGAGA".parse()?;
/// let packed = PackedSeq::from_seq(&s);
/// assert_eq!(packed.len(), 7);
/// assert_eq!(packed.bits_per_symbol(), 2);
/// assert_eq!(packed.code(2), 3); // T
/// assert_eq!(packed.to_seq(), s);
/// # Ok::<(), rl_bio::ParseSeqError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedSeq<S: Symbol> {
    words: Vec<u64>,
    len: usize,
    _marker: PhantomData<S>,
}

impl<S: Symbol> PackedSeq<S> {
    /// Symbols per 64-bit word for this alphabet.
    #[must_use]
    pub fn symbols_per_word() -> usize {
        (64 / S::bits()) as usize
    }

    /// Packs a sequence.
    #[must_use]
    pub fn from_seq(seq: &Seq<S>) -> Self {
        Self::from_codes(seq.codes(), seq.len())
    }

    /// Packs an iterator of symbol codes (each `< S::COUNT`), one whole
    /// word of up to [`symbols_per_word`](PackedSeq::symbols_per_word)
    /// codes at a time.
    ///
    /// # Panics
    ///
    /// Panics if a code is out of range for the alphabet, or if the
    /// iterator does not yield exactly `len` codes.
    pub fn from_codes(codes: impl IntoIterator<Item = u8>, len: usize) -> Self {
        let bits = S::bits();
        let per_word = Self::symbols_per_word();
        let mut words = Vec::with_capacity(len.div_ceil(per_word));
        let mut codes = codes.into_iter();
        let mut n = 0;
        loop {
            let mut word = 0_u64;
            let mut filled = 0;
            for code in codes.by_ref().take(per_word) {
                assert!(
                    (code as usize) < S::COUNT,
                    "symbol code {code} out of range for {}",
                    S::NAME
                );
                word |= u64::from(code) << (filled * bits);
                filled += 1;
            }
            if filled == 0 {
                break;
            }
            words.push(word);
            n += filled as usize;
            if (filled as usize) < per_word {
                break;
            }
        }
        assert_eq!(n, len, "code iterator length mismatch");
        PackedSeq {
            words,
            len,
            _marker: PhantomData,
        }
    }

    /// Reconstructs a packed sequence from raw words — the validated
    /// inverse of [`PackedSeq::words`] for deserializers. Every claim a
    /// byte source could get wrong is checked with a typed error
    /// instead of a panic: word count vs `len`, every code in alphabet
    /// range, and clean (all-zero) padding bits, so a round trip through
    /// `words().to_vec()` is the identity and no other buffer aliases a
    /// valid sequence.
    ///
    /// ```
    /// use rl_bio::{PackedSeq, Seq, alphabet::Dna};
    ///
    /// let s: Seq<Dna> = "ACTGAGA".parse()?;
    /// let p = PackedSeq::from_seq(&s);
    /// let back = PackedSeq::<Dna>::try_from_words(p.words().to_vec(), p.len()).unwrap();
    /// assert_eq!(back, p);
    /// assert!(PackedSeq::<Dna>::try_from_words(vec![u64::MAX], 1).is_err());
    /// # Ok::<(), rl_bio::ParseSeqError>(())
    /// ```
    pub fn try_from_words(words: Vec<u64>, len: usize) -> Result<Self, PackedWordsError> {
        let bits = S::bits();
        let per_word = Self::symbols_per_word();
        let want = len.div_ceil(per_word);
        if words.len() != want {
            return Err(PackedWordsError::WordCountMismatch {
                len,
                got: words.len(),
                want,
            });
        }
        // When the alphabet fills its code width (DNA: 4 symbols in 2
        // bits), every code is in range and only the padding can be wrong.
        let mask = (1_u64 << bits) - 1;
        if S::COUNT <= mask as usize {
            for i in 0..len {
                let code = ((words[i / per_word] >> ((i % per_word) as u32 * bits)) & mask) as u8;
                if (code as usize) >= S::COUNT {
                    return Err(PackedWordsError::CodeOutOfRange { index: i, code });
                }
            }
        }
        // Dead bits must be zero: the tail of the last word past `len`,
        // and — for alphabets where `bits × per_word < 64` (amino
        // acids: 5 × 12 = 60) — the top bits of *every* word.
        for (wi, &w) in words.iter().enumerate() {
            let syms = (len - wi * per_word).min(per_word);
            let used_bits = syms as u32 * bits;
            if used_bits < 64 && w >> used_bits != 0 {
                return Err(PackedWordsError::DirtyPadding);
            }
        }
        Ok(PackedSeq {
            words,
            len,
            _marker: PhantomData,
        })
    }

    /// Number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for the empty sequence.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per symbol (2 for DNA, 5 for amino acids).
    #[must_use]
    pub fn bits_per_symbol(&self) -> u32 {
        S::bits()
    }

    /// The packed words (little-endian codes within each word).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The code of symbol `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn code(&self, i: usize) -> u8 {
        assert!(i < self.len, "symbol index out of range");
        let bits = S::bits();
        let per_word = Self::symbols_per_word();
        let word = self.words[i / per_word];
        let shift = (i % per_word) as u32 * bits;
        ((word >> shift) & ((1 << bits) - 1)) as u8
    }

    /// Iterates over all symbol codes.
    pub fn codes(&self) -> impl Iterator<Item = u8> + '_ {
        let bits = S::bits();
        let per_word = Self::symbols_per_word();
        let mask = (1_u64 << bits) - 1;
        (0..self.len).map(move |i| {
            let word = self.words[i / per_word];
            ((word >> ((i % per_word) as u32 * bits)) & mask) as u8
        })
    }

    /// Unpacks all codes into `out` (cleared first, capacity reused) —
    /// the zero-allocation path for kernels with scratch buffers.
    pub fn unpack_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend(self.codes());
    }

    /// Unpacks all codes into `out` in **reverse** order (cleared
    /// first, capacity reused) — the diagonal gather helper for
    /// anti-diagonal (wavefront) kernels.
    ///
    /// Along an anti-diagonal `i + j = d` of the alignment grid, the
    /// query index `i` grows while the pattern index `j = d − i`
    /// shrinks; with the pattern stored reversed, *both* symbol streams
    /// are read forward (`q[i − 1]` pairs with `rev[len − d + i]`), so a
    /// SIMD kernel gets two contiguous loads instead of a backward
    /// gather. See `race_logic::engine`'s wavefront kernel.
    ///
    /// ```
    /// use rl_bio::{PackedSeq, Seq, alphabet::Dna};
    ///
    /// let s: Seq<Dna> = "ACGT".parse()?;
    /// let p = PackedSeq::from_seq(&s);
    /// let (mut fwd, mut rev) = (Vec::new(), Vec::new());
    /// p.unpack_into(&mut fwd);
    /// p.unpack_reversed_into(&mut rev);
    /// rev.reverse();
    /// assert_eq!(fwd, rev);
    /// # Ok::<(), rl_bio::ParseSeqError>(())
    /// ```
    pub fn unpack_reversed_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let bits = S::bits();
        let per_word = Self::symbols_per_word();
        let mask = (1_u64 << bits) - 1;
        out.extend((0..self.len).rev().map(|i| {
            let word = self.words[i / per_word];
            ((word >> ((i % per_word) as u32 * bits)) & mask) as u8
        }));
    }

    /// Expands back to a symbol sequence.
    ///
    /// # Panics
    ///
    /// Panics if the packed data is corrupt (a code out of alphabet
    /// range), which cannot happen for views built by this module.
    #[must_use]
    pub fn to_seq(&self) -> Seq<S> {
        self.codes()
            .map(|c| S::from_index(c as usize).expect("packed code in alphabet range"))
            .collect()
    }
}

impl<S: Symbol> From<&Seq<S>> for PackedSeq<S> {
    fn from(seq: &Seq<S>) -> Self {
        PackedSeq::from_seq(seq)
    }
}

/// An interleaved (structure-of-arrays) code plane for a *cohort* of
/// sequences — the operand layout of inter-pair striped SIMD kernels.
///
/// Where [`PackedSeq::unpack_into`] produces one flat code stream per
/// sequence, `StripedCodes` transposes up to `lanes` sequences into a
/// single plane in which **position is the major axis and lane the minor
/// one**: the codes of symbol position `pos` of every sequence sit
/// contiguously at `plane[pos * lanes ..][.. lanes]`. A kernel sweeping
/// all cohort members in lock-step (each SIMD lane a different pair)
/// then reads one contiguous lane block per step — the software
/// equivalent of tiling many small alignments onto one Race Logic array.
///
/// Sequences shorter than the padded length, and lanes beyond the cohort
/// size, are filled with a caller-chosen sentinel code. Kernels pick
/// sentinels outside every alphabet's code range (and distinct per
/// plane) so a padding cell can never masquerade as a symbol match.
///
/// The struct is reusable scratch: each `pack_*` call clears and
/// re-fills it, re-using the allocation.
///
/// ```
/// use rl_bio::{PackedSeq, Seq, StripedCodes, alphabet::Dna};
///
/// let a: Seq<Dna> = "ACG".parse()?;
/// let b: Seq<Dna> = "TT".parse()?;
/// let mut plane = StripedCodes::new();
/// plane.pack_forward(&[&PackedSeq::from_seq(&a), &PackedSeq::from_seq(&b)], 4, 3, 0xFE);
/// assert_eq!(plane.lane_block(0), &[0, 3, 0xFE, 0xFE]); // A, T, pad, pad
/// assert_eq!(plane.lane_block(2), &[2, 0xFE, 0xFE, 0xFE]); // G, pad, pad, pad
/// # Ok::<(), rl_bio::ParseSeqError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StripedCodes {
    lanes: usize,
    positions: usize,
    codes: Vec<u8>,
}

impl StripedCodes {
    /// Empty scratch; the layout is chosen per `pack_*` call.
    #[must_use]
    pub fn new() -> Self {
        StripedCodes::default()
    }

    /// Lanes per position of the current packing.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Padded positions of the current packing.
    #[must_use]
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// The whole plane, position-major (`positions × lanes` codes).
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.codes
    }

    /// The `lanes` codes at symbol position `pos`, one per cohort member.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.positions()`.
    #[inline]
    #[must_use]
    pub fn lane_block(&self, pos: usize) -> &[u8] {
        &self.codes[pos * self.lanes..][..self.lanes]
    }

    fn reset(&mut self, lanes: usize, positions: usize, fill: u8) {
        assert!(lanes > 0, "striped plane needs at least one lane");
        self.lanes = lanes;
        self.positions = positions;
        self.codes.clear();
        self.codes.resize(positions * lanes, fill);
    }

    /// Re-packs `seqs` **forward**: lane `l`, position `i` holds
    /// `seqs[l].code(i)`; positions past a sequence's end (and lanes past
    /// the cohort) hold `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `seqs.len() > lanes` or any sequence is longer than
    /// `positions`.
    pub fn pack_forward<S: Symbol>(
        &mut self,
        seqs: &[&PackedSeq<S>],
        lanes: usize,
        positions: usize,
        fill: u8,
    ) {
        self.pack_lanes_forward(seqs.iter().copied(), lanes, positions, fill);
    }

    /// [`StripedCodes::pack_forward`] over an iterator of sequence views
    /// — the gather-free form for callers whose cohort members are
    /// scattered (e.g. selected by index from a batch) or repeated (one
    /// query replicated across every lane of a many-vs-one scan stripe),
    /// where materializing a `&[&PackedSeq]` slice would need a
    /// per-stripe side allocation.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than `lanes` sequences or any
    /// sequence is longer than `positions`.
    pub fn pack_lanes_forward<'a, S: Symbol>(
        &mut self,
        seqs: impl Iterator<Item = &'a PackedSeq<S>>,
        lanes: usize,
        positions: usize,
        fill: u8,
    ) {
        self.reset(lanes, positions, fill);
        for (l, s) in seqs.enumerate() {
            assert!(l < lanes, "cohort larger than the lane count");
            assert!(s.len() <= positions, "sequence longer than the plane");
            for (i, code) in s.codes().enumerate() {
                self.codes[i * lanes + l] = code;
            }
        }
    }

    /// Re-packs `seqs` **reversed and right-aligned**: lane `l`'s codes
    /// occupy the *last* `seqs[l].len()` positions in reverse symbol
    /// order, with `fill` in front.
    ///
    /// This is the cohort analogue of [`PackedSeq::unpack_reversed_into`]
    /// with one extra trick: right-aligning each reversed sequence to the
    /// shared padded length makes the anti-diagonal read index
    /// *lane-independent*. Along diagonal `i + j = d`, lane `l` needs
    /// `p_l[d − i − 1]`, which lands at plane position
    /// `positions − d + i` for **every** lane regardless of its own
    /// length — so the striped kernel issues one block load where a
    /// left-aligned layout would need a per-lane gather.
    ///
    /// # Panics
    ///
    /// Panics if `seqs.len() > lanes` or any sequence is longer than
    /// `positions`.
    pub fn pack_reversed<S: Symbol>(
        &mut self,
        seqs: &[&PackedSeq<S>],
        lanes: usize,
        positions: usize,
        fill: u8,
    ) {
        self.pack_lanes_reversed(seqs.iter().copied(), lanes, positions, fill);
    }

    /// [`StripedCodes::pack_reversed`] over an iterator of sequence views
    /// (see [`StripedCodes::pack_lanes_forward`] for when that form pays).
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than `lanes` sequences or any
    /// sequence is longer than `positions`.
    pub fn pack_lanes_reversed<'a, S: Symbol>(
        &mut self,
        seqs: impl Iterator<Item = &'a PackedSeq<S>>,
        lanes: usize,
        positions: usize,
        fill: u8,
    ) {
        self.reset(lanes, positions, fill);
        for (l, s) in seqs.enumerate() {
            assert!(l < lanes, "cohort larger than the lane count");
            assert!(s.len() <= positions, "sequence longer than the plane");
            let offset = positions - s.len();
            for (i, code) in s.codes().enumerate() {
                self.codes[(offset + s.len() - 1 - i) * lanes + l] = code;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{AminoAcid, Dna};
    use proptest::prelude::*;

    #[test]
    fn dna_packs_32_per_word() {
        assert_eq!(PackedSeq::<Dna>::symbols_per_word(), 32);
        let s: Seq<Dna> = "ACGTACGTACGTACGTACGTACGTACGTACGTA".parse().unwrap(); // 33 symbols
        let p = PackedSeq::from_seq(&s);
        assert_eq!(p.words().len(), 2, "33 bases need two words");
        assert_eq!(p.to_seq(), s);
    }

    #[test]
    fn amino_packs_12_per_word() {
        assert_eq!(PackedSeq::<AminoAcid>::symbols_per_word(), 12);
        let s: Seq<AminoAcid> = "MKLVARNDCQEGH".parse().unwrap(); // 13 symbols
        let p = PackedSeq::from_seq(&s);
        assert_eq!(p.words().len(), 2);
        assert_eq!(p.to_seq(), s);
    }

    #[test]
    fn unpack_into_reuses_capacity() {
        let s: Seq<Dna> = "ACGTACGT".parse().unwrap();
        let p = PackedSeq::from_seq(&s);
        let mut buf = Vec::with_capacity(64);
        let cap = buf.capacity();
        p.unpack_into(&mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(buf.capacity(), cap, "no reallocation for fitting input");
    }

    #[test]
    fn empty_sequence() {
        let p = PackedSeq::<Dna>::from_seq(&Seq::empty());
        assert!(p.is_empty());
        assert_eq!(p.words().len(), 0);
        assert_eq!(p.to_seq(), Seq::<Dna>::empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_code_rejected() {
        let _ = PackedSeq::<Dna>::from_codes([7_u8], 1);
    }

    #[test]
    fn unpack_reversed_reuses_capacity_and_reverses() {
        let s: Seq<Dna> = "ACGTTGCA".parse().unwrap();
        let p = PackedSeq::from_seq(&s);
        let mut buf = Vec::with_capacity(64);
        let cap = buf.capacity();
        p.unpack_reversed_into(&mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3, 3, 2, 1, 0]);
        assert_eq!(buf.capacity(), cap, "no reallocation for fitting input");
        p.unpack_reversed_into(&mut buf); // idempotent, still no realloc
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn striped_forward_interleaves_and_pads() {
        let a: Seq<Dna> = "ACGT".parse().unwrap();
        let b: Seq<Dna> = "TG".parse().unwrap();
        let mut plane = StripedCodes::new();
        plane.pack_forward(
            &[&PackedSeq::from_seq(&a), &PackedSeq::from_seq(&b)],
            4,
            5,
            0xFE,
        );
        assert_eq!(plane.lanes(), 4);
        assert_eq!(plane.positions(), 5);
        assert_eq!(plane.lane_block(0), &[0, 3, 0xFE, 0xFE]);
        assert_eq!(plane.lane_block(1), &[1, 2, 0xFE, 0xFE]);
        assert_eq!(plane.lane_block(2), &[2, 0xFE, 0xFE, 0xFE]);
        assert_eq!(plane.lane_block(4), &[0xFE; 4]);
    }

    #[test]
    fn striped_reversed_right_aligns() {
        let a: Seq<Dna> = "ACG".parse().unwrap(); // codes 0 1 2
        let b: Seq<Dna> = "T".parse().unwrap(); // code 3
        let mut plane = StripedCodes::new();
        plane.pack_reversed(
            &[&PackedSeq::from_seq(&a), &PackedSeq::from_seq(&b)],
            2,
            4,
            0xFF,
        );
        // Lane 0: pad, then ACG reversed = G C A at positions 1..4.
        // Lane 1: pad pad pad, then T at position 3.
        assert_eq!(plane.lane_block(0), &[0xFF, 0xFF]);
        assert_eq!(plane.lane_block(1), &[2, 0xFF]);
        assert_eq!(plane.lane_block(2), &[1, 0xFF]);
        assert_eq!(plane.lane_block(3), &[0, 3]);
    }

    #[test]
    fn striped_scratch_is_reused() {
        let s: Seq<Dna> = "ACGTACGT".parse().unwrap();
        let p = PackedSeq::from_seq(&s);
        let mut plane = StripedCodes::new();
        plane.pack_forward(&[&p], 8, 64, 0xFE);
        let cap = plane.codes.capacity();
        for _ in 0..10 {
            plane.pack_forward(&[&p], 8, 64, 0xFE);
            plane.pack_reversed(&[&p], 8, 64, 0xFF);
            assert_eq!(plane.codes.capacity(), cap, "pack must not reallocate");
        }
    }

    #[test]
    #[should_panic(expected = "cohort larger")]
    fn striped_rejects_oversized_cohort() {
        let s: Seq<Dna> = "AC".parse().unwrap();
        let p = PackedSeq::from_seq(&s);
        StripedCodes::new().pack_forward(&[&p, &p, &p], 2, 4, 0xFE);
    }

    proptest! {
        /// Striping then reading each lane back recovers exactly the
        /// forward (resp. reversed, right-aligned) code streams.
        #[test]
        fn striped_roundtrip(seqs in collection::vec("[ACGT]{0,20}", 1..6)) {
            let packed: Vec<PackedSeq<Dna>> = seqs
                .iter()
                .map(|s| PackedSeq::from_seq(&s.parse::<Seq<Dna>>().unwrap()))
                .collect();
            let refs: Vec<&PackedSeq<Dna>> = packed.iter().collect();
            let positions = packed.iter().map(PackedSeq::len).max().unwrap();
            let lanes = refs.len().next_power_of_two();
            let mut fwd = StripedCodes::new();
            let mut rev = StripedCodes::new();
            fwd.pack_forward(&refs, lanes, positions, 0xFE);
            rev.pack_reversed(&refs, lanes, positions, 0xFF);
            for (l, p) in packed.iter().enumerate() {
                let codes: Vec<u8> = p.codes().collect();
                for i in 0..positions {
                    let want_f = codes.get(i).copied().unwrap_or(0xFE);
                    prop_assert_eq!(fwd.lane_block(i)[l], want_f);
                    // Right-aligned reversed: position positions-1-i holds codes[i].
                    let want_r = codes.get(i).copied().unwrap_or(0xFF);
                    prop_assert_eq!(rev.lane_block(positions - 1 - i)[l], want_r);
                }
            }
        }

        /// Reversed unpacking is exactly forward unpacking, reversed —
        /// across word boundaries and for both alphabets.
        #[test]
        fn unpack_reversed_is_reverse_of_forward(s in "[ACGT]{0,100}") {
            let seq: Seq<Dna> = s.parse().unwrap();
            let p = PackedSeq::from_seq(&seq);
            let (mut fwd, mut rev) = (Vec::new(), Vec::new());
            p.unpack_into(&mut fwd);
            p.unpack_reversed_into(&mut rev);
            fwd.reverse();
            prop_assert_eq!(fwd, rev);
        }

        #[test]
        fn unpack_reversed_amino(s in "[ARNDCQEGHILKMFPSTWYV]{0,40}") {
            let seq: Seq<AminoAcid> = s.parse().unwrap();
            let p = PackedSeq::from_seq(&seq);
            let mut rev = Vec::new();
            p.unpack_reversed_into(&mut rev);
            let fwd: Vec<u8> = p.codes().collect();
            prop_assert_eq!(rev.iter().rev().copied().collect::<Vec<u8>>(), fwd);
        }

        /// Word-at-a-time packing equals a per-symbol reference packer
        /// at every length from 0 to 130 on both alphabets (2 bits × 32
        /// and 5 bits × 12 per word): same words, zero padding bits, and
        /// a `try_from_words` round trip.
        #[test]
        fn word_packing_matches_per_symbol_reference(codes in collection::vec(0_u8..20, 130..131)) {
            fn check<S: Symbol>(codes: &[u8]) {
                let bits = S::bits();
                let per_word = PackedSeq::<S>::symbols_per_word();
                let mut reference = vec![0_u64; codes.len().div_ceil(per_word)];
                for (i, &c) in codes.iter().enumerate() {
                    reference[i / per_word] |= u64::from(c) << ((i % per_word) as u32 * bits);
                }
                let packed = PackedSeq::<S>::from_codes(codes.iter().copied(), codes.len());
                prop_assert_eq!(packed.words(), &reference[..]);
                for (wi, &w) in packed.words().iter().enumerate() {
                    let used = (codes.len() - wi * per_word).min(per_word) as u32 * bits;
                    prop_assert!(used == 64 || w >> used == 0, "dirty padding in word {wi}");
                }
                let back = PackedSeq::<S>::try_from_words(packed.words().to_vec(), codes.len());
                prop_assert_eq!(back, Ok(packed));
            }
            let dna: Vec<u8> = codes.iter().map(|c| c % 4).collect();
            for len in 0..=130 {
                check::<Dna>(&dna[..len]);
                check::<AminoAcid>(&codes[..len]);
            }
        }

        /// Packing is lossless for both alphabets.
        #[test]
        fn dna_round_trip(s in "[ACGT]{0,100}") {
            let seq: Seq<Dna> = s.parse().unwrap();
            let p = PackedSeq::from_seq(&seq);
            prop_assert_eq!(p.len(), seq.len());
            prop_assert_eq!(p.to_seq(), seq.clone());
            for (i, sym) in seq.iter().enumerate() {
                prop_assert_eq!(p.code(i) as usize, sym.index());
            }
        }

        #[test]
        fn amino_round_trip(s in "[ARNDCQEGHILKMFPSTWYV]{0,40}") {
            let seq: Seq<AminoAcid> = s.parse().unwrap();
            let p = PackedSeq::from_seq(&seq);
            prop_assert_eq!(p.to_seq(), seq);
        }
    }
}
