//! The flat cache store.
//!
//! [`FlatLevel`] is the storage behind [`MultiLevelState`](crate::MultiLevelState)
//! and therefore behind every concrete simulator (classic, trace, sampled),
//! and the tag store under warping's symbolic levels.  It holds `MemBlock`s
//! only and is laid out for the per-access update:
//!
//! * a per-set **directory** (`Vec<u32>`: 0 = untouched, otherwise the row
//!   index + 1), allocated zeroed so that construction is cheap and the
//!   pages of untouched sets never become resident;
//! * a **slab** of rows, appended the first time a set is filled.  A row
//!   holds `assoc` tags (block + 1, so 0 marks an empty line) plus the
//!   policy metadata: packed PLRU tree bits or one QLRU age per way.  LRU
//!   and FIFO keep the line order in the row itself (index 0 is the most
//!   recently used / last-in line), exactly like [`SetState`].
//!
//! Every update is bit-identical to the [`SetState`] logic, which stays the
//! reference (`tests/flat_vs_sparse.rs` diffs the two through
//! [`FlatSet::to_set_state`]).  [`FlatLevel::touch`] reports where each
//! access left its line ([`Touch`]), so data kept parallel to the rows —
//! the symbolic labels of warping — follows the replacement policy without
//! a second copy of its logic, and [`FlatLevel::shift_rows`] moves the rows
//! in place when a warp rotates the sets.

use crate::block::MemBlock;
use crate::cache::CacheConfig;
use crate::policy::{PolicyState, ReplacementPolicy};
use crate::set::SetState;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The largest number of sets a level may have: the directory costs four
/// bytes of address space per set.
pub const MAX_SETS: usize = 1 << 24;

/// The largest associativity a level may have.
pub const MAX_ASSOC: usize = 1 << 16;

/// One concrete cache level: a zeroed per-set directory (0 = untouched,
/// otherwise row + 1) plus a slab of rows appended when a set is first
/// filled.  A row holds `assoc` tags (block + 1, 0 = empty line) and the
/// policy metadata: packed PLRU tree bits or one QLRU age per way; LRU and
/// FIFO keep the row in policy order (MRU / last-in first), exactly like
/// [`SetState`].
///
/// Equality and hashing compare geometry and per-set content (lines and
/// policy metadata), not slab order, and ignore the [epoch](FlatLevel::epoch).
pub struct FlatLevel {
    policy: ReplacementPolicy,
    assoc: usize,
    num_sets: usize,
    line_size: u64,
    /// `log2(line_size)` when the line size is a power of two.
    line_shift: Option<u32>,
    /// `num_sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    /// Number of `u64` words of PLRU tree bits per row (0 for other
    /// policies and for direct-mapped PLRU).
    plru_words: usize,
    /// For one-word trees (2 to 64 ways), per way: the mask of the tree
    /// nodes on the root-to-leaf path and the bits a touch writes there, so
    /// a touch is one masked store.  Empty otherwise.
    plru_paths: Vec<(u64, u64)>,
    /// Per-set directory: 0 = untouched, otherwise row index + 1.
    dir: Vec<u32>,
    /// The set of every row, in slab order.
    row_sets: Vec<u32>,
    /// `assoc` tags per row: block + 1, 0 for an empty line.
    tags: Vec<u64>,
    /// `plru_words` words per row; tree node `k` is bit `k % 64` of word
    /// `k / 64` (the node layout of [`PolicyState::PlruBits`]).
    plru: Vec<u64>,
    /// `assoc` QLRU ages per row (empty for other policies).
    ages: Vec<u8>,
    /// The stamp of the last payload write, `i64::MIN` if never stamped.
    epoch: i64,
}

impl FlatLevel {
    /// An empty level with the geometry and policy of `config`.  Costs one
    /// zeroed allocation of four bytes per set; nothing else happens until
    /// a set is filled.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is one [`MemoryConfig::new`] rejects: more
    /// than [`MAX_SETS`] sets, more than [`MAX_ASSOC`] ways, or PLRU with an
    /// associativity that is not a power of two.
    ///
    /// [`MemoryConfig::new`]: crate::MemoryConfig::new
    pub fn new(config: &CacheConfig) -> Self {
        // Room for every row up to 8 MiB of tags: the slab then grows
        // without reallocating, and pages the rows never reach stay
        // untouched.
        FlatLevel::with_tag_capacity(config, (config.num_sets() * config.assoc()).min(1 << 20))
    }

    /// [`FlatLevel::new`] without the up-front room for the tag slab, which
    /// then grows as rows are appended.  For levels that allocate data of
    /// their own as they fill (warping's label slab): there a large
    /// reservation fragments the heap, and 96 tiled-gemm warping runs on
    /// 32 KiB and 32 KiB + 1 MiB levels peaked about 0.3 MiB higher
    /// (`VmHWM`) with it.
    ///
    /// # Panics
    ///
    /// Panics on the geometries [`FlatLevel::new`] rejects.
    pub fn unreserved(config: &CacheConfig) -> Self {
        FlatLevel::with_tag_capacity(config, 0)
    }

    fn with_tag_capacity(config: &CacheConfig, tags: usize) -> Self {
        let (num_sets, assoc, line_size) = (config.num_sets(), config.assoc(), config.line_size());
        assert!(num_sets <= MAX_SETS, "{num_sets} sets exceed {MAX_SETS}");
        assert!(assoc <= MAX_ASSOC, "{assoc} ways exceed {MAX_ASSOC}");
        let policy = config.policy();
        let plru_words = match policy {
            ReplacementPolicy::Plru => {
                assert!(
                    assoc.is_power_of_two(),
                    "PLRU requires a power-of-two associativity, got {assoc}"
                );
                (assoc - 1).div_ceil(64)
            }
            _ => 0,
        };
        FlatLevel {
            policy,
            assoc,
            num_sets,
            line_size,
            line_shift: line_size
                .is_power_of_two()
                .then(|| line_size.trailing_zeros()),
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            plru_words,
            plru_paths: if plru_words == 1 {
                (0..assoc).map(|way| plru_path(assoc, way)).collect()
            } else {
                Vec::new()
            },
            dir: vec![0; num_sets],
            row_sets: Vec::new(),
            tags: Vec::with_capacity(tags),
            plru: Vec::new(),
            ages: Vec::new(),
            epoch: i64::MIN,
        }
    }

    /// Number of cache sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The memory block containing byte address `addr`.
    #[inline]
    pub fn block_of_address(&self, addr: u64) -> MemBlock {
        MemBlock(match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.line_size,
        })
    }

    /// The cache set a block maps to (modulo placement).
    #[inline]
    pub fn index(&self, block: MemBlock) -> usize {
        (match self.set_mask {
            Some(mask) => block.0 & mask,
            None => block.0 % self.num_sets as u64,
        }) as usize
    }

    /// The stamp of the last payload write recorded with
    /// [`FlatLevel::stamp_epoch`], or `i64::MIN` if the level was never
    /// stamped.
    pub fn epoch(&self) -> i64 {
        self.epoch
    }

    /// Records `stamp` as the level's epoch.
    pub fn stamp_epoch(&mut self, stamp: i64) {
        self.epoch = stamp;
    }

    /// Classifies an access to `block` and updates the level: a hit
    /// promotes the line, a miss inserts the block when `fill` is set and
    /// leaves the level untouched otherwise (a no-write-allocate write
    /// miss creates no row).  Returns `true` for a hit.
    ///
    /// # Panics
    ///
    /// Panics on block `u64::MAX`, which has no tag; only a negative byte
    /// address on one-byte lines maps there.
    #[inline]
    pub fn access(&mut self, block: MemBlock, fill: bool) -> bool {
        matches!(self.touch(block, fill), Touch::Hit(_))
    }

    /// [`FlatLevel::access`], reporting where the access left its line:
    /// the row, the way it was found in or written to, and whether the row
    /// rotated ways `0..=way` (see [`Slot`]).
    ///
    /// # Panics
    ///
    /// Panics on block `u64::MAX`, like [`FlatLevel::access`].
    #[inline]
    pub fn touch(&mut self, block: MemBlock, fill: bool) -> Touch {
        let set = self.index(block);
        let tag = block
            .0
            .checked_add(1)
            .expect("block u64::MAX (a negative address on one-byte lines) has no tag");
        let row = match self.dir[set] {
            0 if fill => {
                let row = self.push_row(set);
                return Touch::Fill(self.on_miss(row, tag));
            }
            0 => return Touch::Bypass,
            r => r as usize - 1,
        };
        let base = row * self.assoc;
        match self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
        {
            Some(way) => Touch::Hit(self.on_hit(row, way)),
            None if fill => Touch::Fill(self.on_miss(row, tag)),
            None => Touch::Bypass,
        }
    }

    /// Appends an initial-state row for `set` and returns its index.
    fn push_row(&mut self, set: usize) -> usize {
        let row = self.row_sets.len();
        self.row_sets.push(set as u32);
        self.dir[set] = row as u32 + 1;
        self.tags.resize(self.tags.len() + self.assoc, 0);
        match self.policy {
            ReplacementPolicy::Plru => self.plru.resize(self.plru.len() + self.plru_words, 0),
            ReplacementPolicy::Qlru => self.ages.resize(self.ages.len() + self.assoc, 3),
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {}
        }
        row
    }

    /// [`SetState::on_hit`] on row `row`.
    #[inline]
    fn on_hit(&mut self, row: usize, way: usize) -> Slot {
        let rotated = match self.policy {
            ReplacementPolicy::Lru => {
                let base = row * self.assoc;
                rotate_in(&mut self.tags[base..=base + way]);
                true
            }
            ReplacementPolicy::Fifo => false,
            ReplacementPolicy::Plru => {
                self.plru_touch(row, way);
                false
            }
            ReplacementPolicy::Qlru => {
                self.ages[row * self.assoc + way] = 0;
                false
            }
        };
        Slot { row, way, rotated }
    }

    /// [`SetState::on_miss_insert`] of `tag` on row `row`.
    #[inline]
    fn on_miss(&mut self, row: usize, tag: u64) -> Slot {
        let assoc = self.assoc;
        let tags = &mut self.tags[row * assoc..][..assoc];
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                rotate_in(tags);
                tags[0] = tag;
                Slot {
                    row,
                    way: assoc - 1,
                    rotated: true,
                }
            }
            ReplacementPolicy::Plru => {
                let words = self.plru_words;
                let victim = tags
                    .iter()
                    .position(|&t| t == 0)
                    .unwrap_or_else(|| plru_victim(&self.plru[row * words..][..words], assoc));
                tags[victim] = tag;
                self.plru_touch(row, victim);
                Slot {
                    row,
                    way: victim,
                    rotated: false,
                }
            }
            ReplacementPolicy::Qlru => {
                let ages = &mut self.ages[row * assoc..][..assoc];
                let victim = match tags.iter().position(|&t| t == 0) {
                    Some(empty) => empty,
                    None => loop {
                        if let Some(v) = ages.iter().position(|&a| a >= 3) {
                            break v;
                        }
                        for a in ages.iter_mut() {
                            *a = a.saturating_add(1);
                        }
                    },
                };
                tags[victim] = tag;
                ages[victim] = 2;
                Slot {
                    row,
                    way: victim,
                    rotated: false,
                }
            }
        }
    }

    /// Points row `row`'s PLRU tree bits away from `way`.
    #[inline]
    fn plru_touch(&mut self, row: usize, way: usize) {
        match self.plru_paths.get(way) {
            Some(&(mask, value)) => {
                let bits = &mut self.plru[row];
                *bits = (*bits & !mask) | value;
            }
            None => {
                let words = self.plru_words;
                plru_touch(&mut self.plru[row * words..][..words], self.assoc, way);
            }
        }
    }

    /// Number of sets holding at least one line (every row holds one: rows
    /// are only created by a fill, and lines are replaced, never removed).
    pub fn occupied_len(&self) -> usize {
        self.row_sets.len()
    }

    /// Number of occupied lines over the whole level.
    pub fn occupied_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != 0).count() as u64
    }

    /// The occupied sets in slab (first-fill) order: the `n`-th item is
    /// [row](FlatLevel::row) `n`.  O(occupied).
    pub fn occupied_sets(&self) -> impl Iterator<Item = FlatSet<'_>> + '_ {
        (0..self.row_sets.len()).map(move |row| self.row(row))
    }

    /// The occupied set `idx`, or `None` if it was never filled.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&self, idx: usize) -> Option<FlatSet<'_>> {
        self.row_of(idx).map(|row| self.row(row))
    }

    /// The row of set `idx`, or `None` if it was never filled.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn row_of(&self, idx: usize) -> Option<usize> {
        match self.dir[idx] {
            0 => None,
            r => Some(r as usize - 1),
        }
    }

    /// Set `idx` in the reference representation: the equivalent
    /// [`SetState`], the initial one for a never-filled set.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_state(&self, idx: usize) -> SetState<MemBlock> {
        match self.set(idx) {
            Some(set) => set.to_set_state(),
            None => SetState::new(self.policy, self.assoc),
        }
    }

    /// Row `row` of the slab (rows are numbered in first-fill order, as
    /// [`Touch`] reports them).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not below [`FlatLevel::occupied_len`].
    pub fn row(&self, row: usize) -> FlatSet<'_> {
        let (assoc, words) = (self.assoc, self.plru_words);
        FlatSet {
            index: self.row_sets[row] as usize,
            policy: self.policy,
            tags: &self.tags[row * assoc..][..assoc],
            plru: &self.plru[row * words..][..words],
            ages: if self.ages.is_empty() {
                &[]
            } else {
                &self.ages[row * assoc..][..assoc]
            },
        }
    }

    /// Renames the level by a uniform block shift, in place, as a warp
    /// applies it (the bijection `π` of the paper's data-independence
    /// theorems when every line shifts): every occupied set `s` moves to
    /// `(s + rotation) % num_sets`, and every line for which
    /// `shifts(slot, block)` holds (`slot = row * assoc + way`) has its
    /// block advanced by `block_shift`.  `shifts` sees every occupied line
    /// once, in slab order.  Rows keep their slab index, so data kept
    /// parallel to them stays aligned.  O(occupied).
    ///
    /// # Panics
    ///
    /// Panics if a shifted block leaves `0..u64::MAX`.
    pub fn shift_rows(
        &mut self,
        rotation: usize,
        block_shift: i64,
        mut shifts: impl FnMut(usize, MemBlock) -> bool,
    ) {
        for &set in &self.row_sets {
            self.dir[set as usize] = 0;
        }
        for (row, set) in self.row_sets.iter_mut().enumerate() {
            let moved = (*set as usize + rotation) % self.num_sets;
            *set = moved as u32;
            self.dir[moved] = row as u32 + 1;
        }
        for (slot, tag) in self.tags.iter_mut().enumerate() {
            if *tag != 0 && shifts(slot, MemBlock(*tag - 1)) {
                *tag = tag
                    .checked_add_signed(block_shift)
                    .filter(|&t| t != 0)
                    .expect("a shifted block stays in 0..u64::MAX");
            }
        }
    }

    /// Row indices ordered by set index: the slab-order-free view equality
    /// and hashing compare.
    fn rows_by_set(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..self.row_sets.len()).collect();
        rows.sort_unstable_by_key(|&row| self.row_sets[row]);
        rows
    }

    fn same_geometry(&self, other: &FlatLevel) -> bool {
        self.policy == other.policy
            && self.assoc == other.assoc
            && self.num_sets == other.num_sets
            && self.line_size == other.line_size
    }
}

impl Clone for FlatLevel {
    /// O(occupied) plus one zeroed directory: the directory is rebuilt from
    /// the rows instead of copied.
    fn clone(&self) -> Self {
        let mut dir = vec![0; self.num_sets];
        for (row, &set) in self.row_sets.iter().enumerate() {
            dir[set as usize] = row as u32 + 1;
        }
        FlatLevel {
            dir,
            plru_paths: self.plru_paths.clone(),
            row_sets: self.row_sets.clone(),
            tags: self.tags.clone(),
            plru: self.plru.clone(),
            ages: self.ages.clone(),
            ..*self
        }
    }
}

impl PartialEq for FlatLevel {
    fn eq(&self, other: &Self) -> bool {
        self.same_geometry(other)
            && self.occupied_len() == other.occupied_len()
            && self
                .occupied_sets()
                .all(|set| other.set(set.index()).is_some_and(|o| o == set))
    }
}

impl Eq for FlatLevel {}

impl Hash for FlatLevel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.policy, self.assoc, self.num_sets, self.line_size).hash(state);
        for row in self.rows_by_set() {
            self.row(row).hash(state);
        }
    }
}

impl fmt::Debug for FlatLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatLevel")
            .field("sets", &self.num_sets)
            .field("assoc", &self.assoc)
            .field("policy", &self.policy)
            .field("epoch", &self.epoch)
            .field(
                "occupied",
                &self
                    .rows_by_set()
                    .into_iter()
                    .map(|row| self.row(row))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Where an access left its line, as [`FlatLevel::touch`] reports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Touch {
    /// The block was cached.
    Hit(Slot),
    /// The block missed and was inserted.
    Fill(Slot),
    /// The block missed and was not inserted (a no-write-allocate write
    /// miss); nothing changed.
    Bypass,
}

/// The line an access touched: its row, the way the block was found in
/// (hit) or written to (fill), and whether the row rotated ways `0..=way`
/// right by one, which LRU hits and LRU and FIFO fills do to bring the
/// line to way 0.  Data kept parallel to the ways follows the policy by
/// applying the same move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Slot {
    /// The row (slab index) of the set.
    pub row: usize,
    /// The way of the line before the access reordered the row.
    pub way: usize,
    /// Whether ways `0..=way` rotated right by one.
    pub rotated: bool,
}

impl Slot {
    /// The way that holds the touched line after the access.
    pub fn line(&self) -> usize {
        if self.rotated {
            0
        } else {
            self.way
        }
    }
}

/// A borrowed view of one occupied set of a [`FlatLevel`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlatSet<'a> {
    index: usize,
    policy: ReplacementPolicy,
    tags: &'a [u64],
    plru: &'a [u64],
    ages: &'a [u8],
}

impl<'a> FlatSet<'a> {
    /// The set index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The lines in policy order (as [`SetState::lines`] orders them).
    pub fn lines(&self) -> impl Iterator<Item = Option<MemBlock>> + 'a {
        self.tags.iter().map(|&t| (t != 0).then(|| MemBlock(t - 1)))
    }

    /// The PLRU tree bits, node 0 (the root) first; empty for the other
    /// policies.
    pub fn plru_bits(&self) -> impl Iterator<Item = bool> + 'a {
        let nodes = match self.policy {
            ReplacementPolicy::Plru => self.tags.len() - 1,
            _ => 0,
        };
        let words = self.plru;
        (0..nodes).map(move |k| words[k / 64] >> (k % 64) & 1 == 1)
    }

    /// The QLRU ages, one per way; empty for the other policies.
    pub fn ages(&self) -> &'a [u8] {
        self.ages
    }

    /// The replacement policy of the set.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The equivalent [`SetState`].
    pub fn to_set_state(&self) -> SetState<MemBlock> {
        let policy_state = match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => PolicyState::None,
            ReplacementPolicy::Plru => PolicyState::PlruBits(self.plru_bits().collect()),
            ReplacementPolicy::Qlru => PolicyState::Ages(self.ages.to_vec()),
        };
        SetState::from_parts(self.lines().collect(), policy_state)
    }
}

impl fmt::Debug for FlatSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:?}", self.index, self.to_set_state())
    }
}

/// `row.rotate_right(1)`: the last line moves to the front and the others
/// shift back by one.  Rows are a few ways wide, where a plain loop beats
/// the general rotation routine.
#[inline]
fn rotate_in(row: &mut [u64]) {
    if let Some((&mut last, _)) = row.split_last_mut() {
        for i in (1..row.len()).rev() {
            row[i] = row[i - 1];
        }
        row[0] = last;
    }
}

#[inline]
fn set_bit(words: &mut [u64], k: usize, value: bool) {
    let mask = 1u64 << (k % 64);
    if value {
        words[k / 64] |= mask;
    } else {
        words[k / 64] &= !mask;
    }
}

/// Points the packed PLRU tree bits away from `line` (the packed
/// counterpart of the reference update in `set.rs`).
#[inline]
fn plru_touch(bits: &mut [u64], assoc: usize, line: usize) {
    let levels = assoc.trailing_zeros();
    let mut node = 0usize;
    for level in 0..levels {
        let go_right = (line >> (levels - 1 - level)) & 1 == 1;
        set_bit(bits, node, !go_right);
        node = 2 * node + 1 + usize::from(go_right);
    }
}

/// The tree nodes on the root-to-leaf path of `line` (as a mask) and the
/// bits [`plru_touch`] writes there, for trees of at most 64 ways.
fn plru_path(assoc: usize, line: usize) -> (u64, u64) {
    let (mut mask, mut bits) = ([0u64], [0u64]);
    let levels = assoc.trailing_zeros();
    let mut node = 0usize;
    for level in 0..levels {
        let go_right = (line >> (levels - 1 - level)) & 1 == 1;
        set_bit(&mut mask, node, true);
        node = 2 * node + 1 + usize::from(go_right);
    }
    plru_touch(&mut bits, assoc, line);
    (mask[0], bits[0])
}

/// Follows the packed PLRU tree bits from the root to the victim line.
#[inline]
fn plru_victim(bits: &[u64], assoc: usize) -> usize {
    let mut node = 0usize;
    let mut line = 0usize;
    for _ in 0..assoc.trailing_zeros() {
        let go_right = bits[node / 64] >> (node % 64) & 1 == 1;
        line = 2 * line + usize::from(go_right);
        node = 2 * node + 1 + usize::from(go_right);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_write_allocate_miss_creates_no_row() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
        let mut level = FlatLevel::new(&config);
        assert!(!level.access(MemBlock(5), false));
        assert_eq!(level.occupied_len(), 0);
        assert!(!level.access(MemBlock(5), true));
        assert!(level.access(MemBlock(5), false));
        assert_eq!(level.occupied_len(), 1);
        assert_eq!(
            level.set(1).unwrap().lines().next(),
            Some(Some(MemBlock(5)))
        );
    }

    #[test]
    fn non_power_of_two_geometry_indexes_by_division() {
        let config = CacheConfig::with_sets(3, 1, 48, ReplacementPolicy::Lru);
        let level = FlatLevel::new(&config);
        assert_eq!(level.block_of_address(100), MemBlock(2));
        assert_eq!(level.index(MemBlock(7)), 1);
    }

    #[test]
    fn equality_ignores_slab_order_and_epoch_and_clone_rebuilds_the_directory() {
        let config = CacheConfig::with_sets(8, 2, 64, ReplacementPolicy::Plru);
        let mut a = FlatLevel::new(&config);
        let mut b = FlatLevel::new(&config);
        for block in [1u64, 2, 9] {
            a.access(MemBlock(block), true);
        }
        for block in [2u64, 1, 9] {
            b.access(MemBlock(block), true);
        }
        b.stamp_epoch(4);
        assert_eq!(a, b);
        let hash = |level: &FlatLevel| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            level.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let copy = b.clone();
        assert_eq!(copy.epoch(), 4);
        assert_eq!(copy.set_state(1), b.set_state(1));
        assert!(copy.set(3).is_none());
        b.access(MemBlock(17), true);
        assert_ne!(a, b);
    }

    #[test]
    fn shift_rows_moves_sets_and_renames_blocks() {
        let config = CacheConfig::with_sets(4, 1, 1, ReplacementPolicy::Lru);
        let mut level = FlatLevel::new(&config);
        level.access(MemBlock(1), true);
        level.access(MemBlock(2), true);
        level.stamp_epoch(7);
        level.shift_rows(1, 1, |_, _| true);
        assert_eq!(level.set_state(2).lines()[0], Some(MemBlock(2)));
        assert_eq!(level.set_state(3).lines()[0], Some(MemBlock(3)));
        assert!(level.set(1).is_none());
        assert_eq!(level.epoch(), 7);
        // The moved blocks answer at their new sets.
        assert!(level.access(MemBlock(3), true));
    }
}
