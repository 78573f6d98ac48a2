//! The netlist graph: gates, connectivity, and size state.
//!
//! A [`Netlist`] keeps its nodes in flat arrays indexed by [`GateId`]:
//! every name in one string arena, the kinds in one vector, and the
//! fanins and fanouts each in CSR form (one offsets array and one flat
//! id array). The name index owns no strings: it maps a keyed hash of a
//! name to the first node carrying that hash and chains the rest, and a
//! lookup compares arena bytes. So a netlist is a constant number of
//! allocations, whatever its size, and a clone is a few `memcpy`s.

use crate::error::NetlistError;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use vartol_liberty::{Library, LogicFunction};

/// Identifier of a node (primary input or gate) within one [`Netlist`].
///
/// Ids are dense indices assigned in construction order, which is also a
/// topological order (a gate can only reference previously created nodes).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct GateId(u32);

impl GateId {
    /// The dense index of this node.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index previously obtained via
    /// [`GateId::index`]. The index must refer to the same netlist it came
    /// from; analysis code uses this to address parallel per-node vectors.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self::new(index)
    }

    pub(crate) fn new(index: usize) -> Self {
        Self(to_u32(index))
    }
}

impl std::fmt::Display for GateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is: a primary input or a library gate instance.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum GateKind {
    /// A primary input; carries no delay of its own.
    Input,
    /// A combinational gate mapped to a library cell family.
    Cell {
        /// The boolean function.
        function: LogicFunction,
        /// The current size index into the library's
        /// [`CellGroup`](vartol_liberty::CellGroup) (0 = smallest drive).
        size: usize,
    },
}

/// One node of a [`Netlist`]: a `Copy` view borrowed from the netlist's
/// flat arrays, as [`Netlist::gate`] and [`Netlist::try_gate`] return
/// it. Every slice and name it hands out borrows the netlist, not the
/// view.
#[derive(Clone, Copy)]
pub struct Gate<'a> {
    netlist: &'a Netlist,
    index: usize,
}

impl<'a> Gate<'a> {
    /// The node's unique name.
    #[must_use]
    pub fn name(self) -> &'a str {
        self.netlist.names.get(self.index)
    }

    /// The node kind (input or cell).
    #[must_use]
    #[inline]
    pub fn kind(self) -> &'a GateKind {
        &self.netlist.kinds[self.index]
    }

    /// True for primary inputs.
    #[must_use]
    #[inline]
    pub fn is_input(self) -> bool {
        matches!(self.kind(), GateKind::Input)
    }

    /// The logic function, if this node is a cell.
    #[must_use]
    #[inline]
    pub fn function(self) -> Option<LogicFunction> {
        match *self.kind() {
            GateKind::Input => None,
            GateKind::Cell { function, .. } => Some(function),
        }
    }

    /// The current size index, if this node is a cell.
    #[must_use]
    #[inline]
    pub fn size(self) -> Option<usize> {
        match *self.kind() {
            GateKind::Input => None,
            GateKind::Cell { size, .. } => Some(size),
        }
    }

    /// Driving nodes, in pin order.
    #[must_use]
    #[inline]
    pub fn fanins(self) -> &'a [GateId] {
        self.netlist.fanins.row(self.index)
    }

    /// Driven nodes, once per sink pin (a gate reading this node on two
    /// pins lists it twice), in (reader id, pin) order.
    #[must_use]
    #[inline]
    pub fn fanouts(self) -> &'a [GateId] {
        self.netlist.fanouts.row(self.index)
    }
}

impl std::fmt::Debug for Gate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("name", &self.name())
            .field("kind", self.kind())
            .field("fanins", &self.fanins())
            .field("fanouts", &self.fanouts())
            .finish()
    }
}

/// One register of a sequential netlist: the cut between its D (data)
/// pin and its Q (output) gate.
///
/// In the flattened timing graph the register's Q pin is an ordinary
/// [`LogicFunction::Dff`] cell whose single fanin is the shared clock
/// input — its cell delay is the clk→Q launch offset, so every engine
/// times it with no special casing. The D pin is **not** a graph edge
/// (the graph stays acyclic); it is this metadata record, which makes
/// the node driving D a timing endpoint checked against the register's
/// setup window.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Register {
    name: String,
    q: GateId,
    d: GateId,
}

impl Register {
    pub(crate) fn new(name: String, q: GateId, d: GateId) -> Self {
        Self { name, q, d }
    }

    /// The register's name (the name of its Q gate).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The Q-pin gate: a [`LogicFunction::Dff`] cell fed by the clock,
    /// and the startpoint of every path the register launches.
    #[must_use]
    pub fn q(&self) -> GateId {
        self.q
    }

    /// The node driving the D pin: the endpoint of every path the
    /// register captures.
    #[must_use]
    pub fn d(&self) -> GateId {
        self.d
    }
}

/// `len` as a `u32` table offset, or [`NetlistError::TooLarge`] naming
/// the table that outgrew it.
pub(crate) fn offset(len: usize, table: &'static str) -> Result<u32, NetlistError> {
    u32::try_from(len).map_err(|_| NetlistError::TooLarge { table, len })
}

/// Whether `offsets` delimits `rows` rows of a `len`-entry flat array:
/// `rows + 1` non-decreasing entries from 0 to `len`.
fn offsets_delimit(offsets: &[u32], rows: usize, len: usize) -> bool {
    offsets.len() == rows + 1
        && offsets.first() == Some(&0)
        && offsets.last().map(|&end| end as usize) == Some(len)
        && offsets.windows(2).all(|w| w[0] <= w[1])
}

/// Every node name, back to back in one string: node `i`'s name is
/// `bytes[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Names {
    bytes: String,
    offsets: Vec<u32>,
}

impl Names {
    pub(crate) fn with_capacity(nodes: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        Self {
            bytes: String::with_capacity(bytes),
            offsets,
        }
    }

    /// Appends the next node's name. When the arena would outgrow `u32`
    /// offsets the node gets an empty name and the error is returned.
    pub(crate) fn push(&mut self, name: &str) -> Result<(), NetlistError> {
        match offset(self.bytes.len() + name.len(), "name bytes") {
            Ok(end) => {
                self.bytes.push_str(name);
                self.offsets.push(end);
                Ok(())
            }
            Err(e) => {
                self.offsets.push(self.offsets[self.offsets.len() - 1]);
                Err(e)
            }
        }
    }

    pub(crate) fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Per-node id lists in CSR form: node `i`'s list is
/// `ids[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    ids: Vec<GateId>,
}

impl Csr {
    pub(crate) fn with_capacity(rows: usize, ids: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            ids: Vec::with_capacity(ids),
        }
    }

    /// Appends the next row. When the flat array would outgrow `u32`
    /// offsets the row stays empty and the error is returned.
    pub(crate) fn push(
        &mut self,
        row: impl ExactSizeIterator<Item = GateId>,
    ) -> Result<(), NetlistError> {
        match offset(self.ids.len() + row.len(), "fanin pins") {
            Ok(end) => {
                self.ids.extend(row);
                self.offsets.push(end);
                Ok(())
            }
            Err(e) => {
                self.offsets.push(self.offsets[self.offsets.len() - 1]);
                Err(e)
            }
        }
    }

    /// Row `i`'s bounds (one bounds check for both offsets).
    #[inline]
    fn bounds(&self, i: usize) -> (usize, usize) {
        let &[start, end] = &self.offsets[i..i + 2] else {
            unreachable!("a two-entry slice")
        };
        (start as usize, end as usize)
    }

    #[inline]
    fn row(&self, i: usize) -> &[GateId] {
        let (start, end) = self.bounds(i);
        &self.ids[start..end]
    }

    #[inline]
    fn row_len(&self, i: usize) -> usize {
        let (start, end) = self.bounds(i);
        end - start
    }

    /// The reverse lists of this fanin CSR: node `f`'s row names every
    /// reader once per pin that reads `f`, in (reader, pin) order. One counting pass sizes the rows; the fill walks the
    /// readers backwards, moving each row's end offset down to its start.
    pub(crate) fn transpose(&self) -> Self {
        let rows = self.offsets.len() - 1;
        let mut offsets = vec![0u32; rows + 1];
        for f in &self.ids {
            offsets[f.index()] += 1;
        }
        // Inclusive prefix sums: `offsets[f]` is the end of row `f`.
        let mut end = 0;
        for o in &mut offsets[..rows] {
            end += *o;
            *o = end;
        }
        offsets[rows] = end;
        let mut ids = vec![GateId(0); self.ids.len()];
        for reader in (0..rows).rev() {
            for f in self.row(reader).iter().rev() {
                let slot = &mut offsets[f.index()];
                *slot -= 1;
                ids[*slot as usize] = GateId::new(reader);
            }
        }
        Self { offsets, ids }
    }
}

/// Passes a precomputed hash through: the index's keys are already
/// [`RandomState`] hashes of the names, unpredictable without the
/// netlist's keys, so hashing them again would add cost and no
/// protection against crafted collisions.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Chain terminator in [`NameIndex::next`].
const NO_NODE: u32 = u32::MAX;

/// Name → number (node or statement) over names it does not own: every
/// method reads the indexed names through a `name_of` lookup. Names are
/// hashed with std's keyed [`RandomState`] (served `Register` requests
/// carry untrusted text); `heads` maps a hash to the last-inserted entry
/// carrying it and `next[i]` to the entry inserted before `i` with the
/// same hash.
#[derive(Debug, Clone)]
pub(crate) struct NameIndex {
    keys: RandomState,
    heads: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    next: Vec<u32>,
}

impl NameIndex {
    pub(crate) fn with_capacity(entries: usize) -> Self {
        Self {
            keys: RandomState::new(),
            heads: HashMap::with_capacity_and_hasher(entries, BuildHasherDefault::default()),
            next: Vec::with_capacity(entries),
        }
    }

    /// Indexes `name` as the next entry, numbered `next.len()`, unless
    /// an earlier entry carries the same name; returns whether it did.
    /// The entry is numbered either way.
    pub(crate) fn insert<'n>(&mut self, name: &str, name_of: impl Fn(usize) -> &'n str) -> bool {
        let entry = to_u32(self.next.len());
        self.next.push(NO_NODE);
        let hash = self.keys.hash_one(name);
        if let Some(&head) = self.heads.get(&hash) {
            if chain(head, &self.next).any(|j| name_of(j) == name) {
                return false;
            }
        }
        self.link(hash, entry);
        true
    }

    /// Makes `entry` the head of `hash`'s chain.
    fn link(&mut self, hash: u64, entry: u32) {
        if let Some(rest) = self.heads.insert(hash, entry) {
            self.next[entry as usize] = rest;
        }
    }

    pub(crate) fn get<'n>(&self, name: &str, name_of: impl Fn(usize) -> &'n str) -> Option<usize> {
        let &head = self.heads.get(&self.keys.hash_one(name))?;
        chain(head, &self.next).find(|&j| name_of(j) == name)
    }

    /// Renumbers entry `i` as node `to[i]` of a netlist with `nodes`
    /// nodes, then indexes `extra` (a node no entry maps to) under its
    /// `name`. No name is hashed again but `name`.
    pub(crate) fn renumber(&mut self, to: &[GateId], nodes: usize, extra: Option<(GateId, &str)>) {
        let node = |j: u32| {
            if j == NO_NODE {
                NO_NODE
            } else {
                to[j as usize].0
            }
        };
        for head in self.heads.values_mut() {
            *head = node(*head);
        }
        let mut next = vec![NO_NODE; nodes];
        for (i, &j) in self.next.iter().enumerate() {
            next[to[i].index()] = node(j);
        }
        self.next = next;
        if let Some((id, name)) = extra {
            self.link(self.keys.hash_one(name), id.0);
        }
    }
}

/// An index as `u32`, the width of a [`GateId`].
pub(crate) fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("netlists are limited to u32 nodes")
}

/// The entries of one hash chain, starting at `head`.
fn chain(head: u32, next: &[u32]) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(head), |&j| {
        Some(next[j as usize]).filter(|&n| n != NO_NODE)
    })
    .map(|j| j as usize)
}

/// A combinational gate-level netlist, optionally carrying a register
/// cut (see [`Register`]) that makes it the flattened core of a
/// sequential circuit.
///
/// Nodes are stored in a topological order (guaranteed by the builder), so
/// timing propagation is a single forward scan over [`Netlist::node_ids`].
/// They live in flat arrays (see the [module docs](self)); `==` compares
/// that structure — names, kinds, fanins, fanouts, inputs, outputs and
/// registers — and not the layout of the keyed name index, which differs
/// between otherwise equal netlists.
///
/// # Example
///
/// ```
/// use vartol_liberty::{Library, LogicFunction};
/// use vartol_netlist::NetlistBuilder;
///
/// let lib = Library::synthetic_90nm();
/// let mut b = NetlistBuilder::new("inv_chain");
/// let a = b.input("a");
/// let g1 = b.gate("g1", LogicFunction::Inv, &[a]);
/// let g2 = b.gate("g2", LogicFunction::Inv, &[g1]);
/// b.mark_output(g2);
/// let mut n = b.build().expect("valid");
///
/// assert_eq!(n.depth(), 2);
/// let before = n.total_area(&lib);
/// n.set_size(g1, 3);
/// assert!(n.total_area(&lib) > before);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    names: Names,
    kinds: Vec<GateKind>,
    fanins: Csr,
    fanouts: Csr,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    /// `output_flags[i]` is true iff node `i` is in `outputs` — the O(1)
    /// form of [`Netlist::is_output`], kept in step with `outputs`; at
    /// least one entry per node.
    output_flags: Vec<bool>,
    index: NameIndex,
    registers: Vec<Register>,
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.names == other.names
            && self.kinds == other.kinds
            && self.fanins == other.fanins
            && self.fanouts == other.fanouts
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.output_flags == other.output_flags
            && self.registers == other.registers
    }
}

/// The parts a [`NetlistBuilder`](crate::NetlistBuilder) hands over.
pub(crate) struct Parts {
    pub(crate) name: String,
    pub(crate) names: Names,
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) fanins: Csr,
    pub(crate) inputs: Vec<GateId>,
    pub(crate) outputs: Vec<GateId>,
    pub(crate) output_flags: Vec<bool>,
    pub(crate) index: NameIndex,
    pub(crate) registers: Vec<Register>,
}

impl Netlist {
    /// Assembles a netlist, deriving its fanouts from `parts.fanins`.
    pub(crate) fn from_parts(parts: Parts) -> Self {
        let fanouts = parts.fanins.transpose();
        Self {
            name: parts.name,
            names: parts.names,
            kinds: parts.kinds,
            fanins: parts.fanins,
            fanouts,
            inputs: parts.inputs,
            outputs: parts.outputs,
            output_flags: parts.output_flags,
            index: parts.index,
            registers: parts.registers,
        }
    }

    /// The netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist (builder output), e.g. to label a generated
    /// circuit with its benchmark-suite name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Total node count (primary inputs + gates).
    #[must_use]
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of cell gates (excluding primary inputs).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| !matches!(k, GateKind::Input))
            .count()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input ids.
    #[must_use]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary output ids.
    #[must_use]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Whether `id` is marked as a primary output.
    #[must_use]
    pub fn is_output(&self, id: GateId) -> bool {
        self.output_flags.get(id.index()).copied().unwrap_or(false)
    }

    /// The register cut, in Q-gate construction order (empty for a
    /// purely combinational netlist).
    #[must_use]
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// Number of registers.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Whether the netlist carries a register cut.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        !self.registers.is_empty()
    }

    /// The shared clock input (the single fanin of every register's Q
    /// gate), or `None` for a combinational netlist.
    #[must_use]
    pub fn clock(&self) -> Option<GateId> {
        self.registers.first().map(|r| self.gate(r.q()).fanins()[0])
    }

    /// Every setup-timing endpoint, sorted by id: the primary outputs
    /// plus the nodes driving register D pins. A node that is both (or
    /// drives several D pins) appears once.
    #[must_use]
    pub fn timing_endpoints(&self) -> Vec<GateId> {
        let mut endpoints: Vec<GateId> = self.outputs.clone();
        endpoints.extend(self.registers.iter().map(Register::d));
        endpoints.sort_unstable();
        endpoints.dedup();
        endpoints
    }

    /// A clone with every register's (non-input) D driver additionally
    /// marked as a primary output, so that the engines' max-over-outputs
    /// objective ranges over **all** setup endpoints. This is the netlist
    /// the clocked sizer optimizes: minimizing its circuit delay drives
    /// the worst endpoint arrival — and with it the worst negative slack
    /// — down. Input-driven D pins are skipped (an input arrives at 0 and
    /// can never be the critical endpoint).
    #[must_use]
    pub fn endpoint_marked(&self) -> Netlist {
        let mut marked = self.clone();
        for r in &self.registers {
            let d = r.d();
            if !self.gate(d).is_input() && !marked.is_output(d) {
                marked.outputs.push(d);
                marked.output_flags[d.index()] = true;
            }
        }
        marked
    }

    /// The node for `id`.
    ///
    /// # Panics
    ///
    /// The view's accessors panic if `id` does not belong to this
    /// netlist (see [`Netlist::try_gate`] for the checked form).
    #[must_use]
    #[inline]
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        Gate {
            netlist: self,
            index: id.index(),
        }
    }

    /// The node for `id`, rejecting ids from a different (or larger)
    /// netlist instead of panicking — the validation entry point for
    /// services that accept untrusted requests.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NodeOutOfRange`] when `id` points past the
    /// node table.
    pub fn try_gate(&self, id: GateId) -> Result<Gate<'_>, NetlistError> {
        if id.index() < self.kinds.len() {
            Ok(self.gate(id))
        } else {
            Err(NetlistError::NodeOutOfRange {
                index: id.index(),
                nodes: self.kinds.len(),
            })
        }
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn gate_by_name(&self, name: &str) -> Option<GateId> {
        self.index.get(name, |j| self.names.get(j)).map(GateId::new)
    }

    /// All node ids in topological order (inputs before the gates they
    /// feed; every gate after all of its fanins).
    pub fn node_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.kinds.len()).map(GateId::new)
    }

    /// Ids of cell gates only, topological order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        self.node_ids().filter(|&id| !self.gate(id).is_input())
    }

    /// Sets the size index of a cell gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input (see [`Netlist::try_set_size`]
    /// for the non-panicking form).
    pub fn set_size(&mut self, id: GateId, size: usize) {
        match &mut self.kinds[id.index()] {
            GateKind::Input => panic!("cannot size a primary input"),
            GateKind::Cell { size: s, .. } => *s = size,
        }
    }

    /// Sets the size index of a cell gate, rejecting bad ids and input
    /// nodes instead of panicking. Size indices are *not* checked against
    /// a library here (the netlist knows none); use
    /// [`Netlist::validate_against_library`] or check the
    /// [`CellGroup`](vartol_liberty::CellGroup) length for that.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NodeOutOfRange`] for an id past the node
    /// table, or [`NetlistError::InputHasNoSize`] for a primary input.
    pub fn try_set_size(&mut self, id: GateId, size: usize) -> Result<(), NetlistError> {
        let nodes = self.kinds.len();
        let kind = self
            .kinds
            .get_mut(id.index())
            .ok_or(NetlistError::NodeOutOfRange {
                index: id.index(),
                nodes,
            })?;
        match kind {
            GateKind::Input => Err(NetlistError::InputHasNoSize(
                self.names.get(id.index()).to_owned(),
            )),
            GateKind::Cell { size: s, .. } => {
                *s = size;
                Ok(())
            }
        }
    }

    /// Snapshot of all gate sizes (entries for input nodes are 0).
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.kinds
            .iter()
            .map(|k| match *k {
                GateKind::Input => 0,
                GateKind::Cell { size, .. } => size,
            })
            .collect()
    }

    /// Restores a snapshot taken with [`Netlist::sizes`].
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != self.node_count()` (see
    /// [`Netlist::try_restore_sizes`] for the non-panicking form).
    pub fn restore_sizes(&mut self, sizes: &[usize]) {
        self.try_restore_sizes(sizes)
            .unwrap_or_else(|e| panic!("size snapshot length mismatch: {e}"));
    }

    /// Restores a snapshot taken with [`Netlist::sizes`], rejecting a
    /// length mismatch instead of panicking. On error the netlist is
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::SizeSnapshotMismatch`] when
    /// `sizes.len() != self.node_count()`.
    pub fn try_restore_sizes(&mut self, sizes: &[usize]) -> Result<(), NetlistError> {
        if sizes.len() != self.kinds.len() {
            return Err(NetlistError::SizeSnapshotMismatch {
                got: sizes.len(),
                expected: self.kinds.len(),
            });
        }
        for (kind, &s) in self.kinds.iter_mut().zip(sizes) {
            if let GateKind::Cell { size, .. } = kind {
                *size = s;
            }
        }
        Ok(())
    }

    /// Resets every gate to the smallest size.
    pub fn reset_sizes(&mut self) {
        for kind in &mut self.kinds {
            if let GateKind::Cell { size, .. } = kind {
                *size = 0;
            }
        }
    }

    /// The library cell currently implementing gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is an input or the library lacks the cell (use
    /// [`Netlist::validate_against_library`] first for a `Result`).
    #[must_use]
    #[inline]
    pub fn cell<'l>(&self, id: GateId, library: &'l Library) -> &'l vartol_liberty::Cell {
        let i = id.index();
        if let GateKind::Cell { function, size } = self.kinds[i] {
            if let Some(cell) = library.cell(function, self.fanins.row_len(i), size) {
                return cell;
            }
        }
        self.no_cell(id)
    }

    #[cold]
    fn no_cell(&self, id: GateId) -> ! {
        let g = self.gate(id);
        match *g.kind() {
            GateKind::Input => panic!("primary input {} has no cell", g.name()),
            GateKind::Cell { function, size } => panic!(
                "library has no cell {function}/{} size {size} for gate {}",
                g.fanins().len(),
                g.name()
            ),
        }
    }

    /// Total cell area under the given library.
    #[must_use]
    pub fn total_area(&self, library: &Library) -> f64 {
        self.gate_ids()
            .map(|id| self.cell(id, library).area())
            .sum()
    }

    /// Checks that every gate maps to an existing library cell group and
    /// that its current size index is in range.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] for the first offending gate.
    pub fn validate_against_library(&self, library: &Library) -> Result<(), NetlistError> {
        for id in self.gate_ids() {
            let g = self.gate(id);
            let (function, size) = match g.kind() {
                GateKind::Input => continue,
                GateKind::Cell { function, size } => (*function, *size),
            };
            let arity = g.fanins().len();
            match library.group(function, arity) {
                Some(group) if size < group.len() => {}
                _ => {
                    return Err(NetlistError::MissingCell {
                        gate: g.name().to_owned(),
                        function,
                        arity,
                    })
                }
            }
        }
        Ok(())
    }

    /// Topological level of every node: inputs at level 0, each gate one
    /// more than its deepest fanin.
    #[must_use]
    pub fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.kinds.len()];
        for id in self.node_ids() {
            let g = self.gate(id);
            if !g.is_input() {
                levels[id.index()] = g
                    .fanins()
                    .iter()
                    .map(|f| levels[f.index()] + 1)
                    .max()
                    .unwrap_or(0);
            }
        }
        levels
    }

    /// Logic depth: the maximum level over all nodes.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// The transitive fanout cone of a seed set: every node reachable
    /// from a seed along fanout edges, including the seeds themselves.
    /// Returned sorted by id (= topological order).
    ///
    /// This is exactly the region an incremental timing update may touch
    /// after the seed gates change; tests use it to assert the bound the
    /// incremental re-analysis must respect.
    #[must_use]
    pub fn fanout_cone(&self, seeds: impl IntoIterator<Item = GateId>) -> Vec<GateId> {
        let mut in_cone = vec![false; self.kinds.len()];
        let mut worklist: Vec<GateId> = Vec::new();
        for seed in seeds {
            if !in_cone[seed.index()] {
                in_cone[seed.index()] = true;
                worklist.push(seed);
            }
        }
        while let Some(id) = worklist.pop() {
            for &f in self.gate(id).fanouts() {
                if !in_cone[f.index()] {
                    in_cone[f.index()] = true;
                    worklist.push(f);
                }
            }
        }
        in_cone
            .iter()
            .enumerate()
            .filter(|(_, &hit)| hit)
            .map(|(i, _)| GateId::new(i))
            .collect()
    }

    /// Structural invariants: the flat tables are well formed, fanins
    /// precede their gate (topological order), inputs have no fanins,
    /// arities are legal, every fanout list is exactly the reverse of the
    /// fanin lists (once per pin, in (reader, pin) order), and the
    /// register cut is sound. One pass over the pins; builders already
    /// guarantee all of this.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), NetlistError> {
        let nodes = self.kinds.len();
        let tables = [
            (&self.names.offsets, self.names.bytes.len(), "name offsets"),
            (&self.fanins.offsets, self.fanins.ids.len(), "fanin offsets"),
            (
                &self.fanouts.offsets,
                self.fanouts.ids.len(),
                "fanout offsets",
            ),
        ];
        for (offsets, len, table) in tables {
            if !offsets_delimit(offsets, nodes, len) {
                return Err(NetlistError::Malformed(table));
            }
        }
        if !self
            .names
            .offsets
            .iter()
            .all(|&o| self.names.bytes.is_char_boundary(o as usize))
        {
            return Err(NetlistError::Malformed("name offsets"));
        }
        if let Some(&id) = self.fanouts.ids.iter().find(|f| f.index() >= nodes) {
            return Err(NetlistError::NodeOutOfRange {
                index: id.index(),
                nodes,
            });
        }
        // `cursor[f]`: where the next reader of `f` must sit in its
        // fanout row.
        let mut cursor = self.fanouts.offsets[..nodes].to_vec();
        for id in self.node_ids() {
            let g = self.gate(id);
            match g.kind() {
                GateKind::Input => {
                    if !g.fanins().is_empty() {
                        return Err(NetlistError::Cycle(g.name().to_owned()));
                    }
                }
                GateKind::Cell { function, .. } => {
                    if !function.supports_arity(g.fanins().len()) {
                        return Err(NetlistError::BadArity {
                            gate: g.name().to_owned(),
                            function: *function,
                            arity: g.fanins().len(),
                        });
                    }
                }
            }
            for &f in g.fanins() {
                if f.index() >= id.index() {
                    return Err(NetlistError::Cycle(g.name().to_owned()));
                }
                let slot = &mut cursor[f.index()];
                if *slot >= self.fanouts.offsets[f.index() + 1]
                    || self.fanouts.ids[*slot as usize] != id
                {
                    return Err(NetlistError::UnknownSignal(g.name().to_owned()));
                }
                *slot += 1;
            }
        }
        if let Some(f) = (0..nodes).find(|&f| cursor[f] != self.fanouts.offsets[f + 1]) {
            return Err(NetlistError::UnknownSignal(self.names.get(f).to_owned()));
        }
        if self.inputs.is_empty() {
            return Err(NetlistError::NoInputs);
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut clock: Option<GateId> = None;
        let mut seen_q = vec![false; self.kinds.len()];
        for r in &self.registers {
            let q = self.try_gate(r.q())?;
            self.try_gate(r.d())?;
            let is_dff = matches!(
                q.kind(),
                GateKind::Cell {
                    function: LogicFunction::Dff,
                    ..
                }
            );
            if !is_dff || q.fanins().len() != 1 {
                return Err(NetlistError::BadRegister {
                    register: r.name().to_owned(),
                    message: "Q gate is not a single-fanin DFF cell".to_owned(),
                });
            }
            if seen_q[r.q().index()] {
                return Err(NetlistError::BadRegister {
                    register: r.name().to_owned(),
                    message: "two registers share one Q gate".to_owned(),
                });
            }
            seen_q[r.q().index()] = true;
            let clk = q.fanins()[0];
            if !self.gate(clk).is_input() {
                return Err(NetlistError::BadRegister {
                    register: r.name().to_owned(),
                    message: "clock is not a primary input".to_owned(),
                });
            }
            match clock {
                None => clock = Some(clk),
                Some(c) if c != clk => {
                    return Err(NetlistError::BadRegister {
                        register: r.name().to_owned(),
                        message: "registers disagree on the clock input".to_owned(),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Netlist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} gates, {} inputs, {} outputs, depth {}",
            self.name,
            self.gate_count(),
            self.input_count(),
            self.output_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use vartol_liberty::Library;

    fn tiny() -> (Netlist, GateId, GateId, GateId) {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate("g1", LogicFunction::Nand, &[a, c]);
        let g2 = b.gate("g2", LogicFunction::Inv, &[g1]);
        b.mark_output(g2);
        (b.build().expect("valid"), a, g1, g2)
    }

    #[test]
    fn counts_and_lookup() {
        let (n, a, g1, g2) = tiny();
        assert_eq!(n.node_count(), 4);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.input_count(), 2);
        assert_eq!(n.output_count(), 1);
        assert_eq!(n.gate_by_name("g1"), Some(g1));
        assert_eq!(n.gate_by_name("nope"), None);
        assert!(n.gate(a).is_input());
        assert!(!n.gate(g2).is_input());
        assert!(n.is_output(g2));
        assert!(!n.is_output(g1));
    }

    #[test]
    fn fanin_fanout_consistency() {
        let (n, a, g1, g2) = tiny();
        assert_eq!(n.gate(g1).fanins().len(), 2);
        assert_eq!(n.gate(g1).fanouts(), &[g2]);
        assert!(n.gate(a).fanouts().contains(&g1));
        assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn levels_and_depth() {
        let (n, a, g1, g2) = tiny();
        let levels = n.levels();
        assert_eq!(levels[a.index()], 0);
        assert_eq!(levels[g1.index()], 1);
        assert_eq!(levels[g2.index()], 2);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn size_snapshot_round_trip() {
        let (mut n, _, g1, g2) = tiny();
        n.set_size(g1, 3);
        n.set_size(g2, 2);
        let snap = n.sizes();
        n.reset_sizes();
        assert_eq!(n.gate(g1).size(), Some(0));
        n.restore_sizes(&snap);
        assert_eq!(n.gate(g1).size(), Some(3));
        assert_eq!(n.gate(g2).size(), Some(2));
    }

    #[test]
    #[should_panic(expected = "cannot size a primary input")]
    fn sizing_input_panics() {
        let (mut n, a, _, _) = tiny();
        n.set_size(a, 1);
    }

    #[test]
    fn try_gate_rejects_foreign_ids() {
        let (n, _, g1, _) = tiny();
        assert_eq!(n.try_gate(g1).expect("valid id").name(), "g1");
        let bad = GateId::from_index(n.node_count() + 3);
        assert_eq!(
            n.try_gate(bad).expect_err("out of range"),
            NetlistError::NodeOutOfRange {
                index: n.node_count() + 3,
                nodes: n.node_count()
            }
        );
    }

    #[test]
    fn try_set_size_rejects_inputs_and_bad_ids_without_mutating() {
        let (mut n, a, g1, _) = tiny();
        n.try_set_size(g1, 2).expect("cells are sizable");
        assert_eq!(n.gate(g1).size(), Some(2));
        assert_eq!(
            n.try_set_size(a, 1).expect_err("inputs have no size"),
            NetlistError::InputHasNoSize("a".into())
        );
        let snapshot = n.sizes();
        let bad = GateId::from_index(99);
        assert!(matches!(
            n.try_set_size(bad, 1),
            Err(NetlistError::NodeOutOfRange { index: 99, .. })
        ));
        assert_eq!(n.sizes(), snapshot, "failed calls leave sizes untouched");
    }

    #[test]
    fn try_restore_sizes_rejects_length_mismatch_without_mutating() {
        let (mut n, _, g1, _) = tiny();
        n.set_size(g1, 3);
        let snapshot = n.sizes();
        assert_eq!(
            n.try_restore_sizes(&[0]).expect_err("wrong length"),
            NetlistError::SizeSnapshotMismatch {
                got: 1,
                expected: n.node_count()
            }
        );
        assert_eq!(n.sizes(), snapshot, "error path must not half-apply");
        let mut restored = snapshot.clone();
        restored[g1.index()] = 1;
        n.try_restore_sizes(&restored).expect("matching length");
        assert_eq!(n.gate(g1).size(), Some(1));
    }

    #[test]
    fn area_grows_with_size() {
        let lib = Library::synthetic_90nm();
        let (mut n, _, g1, _) = tiny();
        let a0 = n.total_area(&lib);
        n.set_size(g1, 4);
        assert!(n.total_area(&lib) > a0);
    }

    #[test]
    fn library_validation() {
        let lib = Library::synthetic_90nm();
        let (mut n, _, g1, _) = tiny();
        assert!(n.validate_against_library(&lib).is_ok());
        n.set_size(g1, 999);
        assert!(matches!(
            n.validate_against_library(&lib),
            Err(NetlistError::MissingCell { .. })
        ));
    }

    #[test]
    fn cell_lookup_tracks_size() {
        let lib = Library::synthetic_90nm();
        let (mut n, _, g1, _) = tiny();
        assert_eq!(n.cell(g1, &lib).drive_index(), 0);
        n.set_size(g1, 2);
        assert_eq!(n.cell(g1, &lib).drive_index(), 2);
        assert_eq!(n.cell(g1, &lib).function(), LogicFunction::Nand);
    }

    #[test]
    fn fanout_cone_covers_downstream_only() {
        let (n, a, g1, g2) = tiny();
        // From g1: itself and g2 (its only sink).
        assert_eq!(n.fanout_cone([g1]), vec![g1, g2]);
        // From the output: itself only.
        assert_eq!(n.fanout_cone([g2]), vec![g2]);
        // From an input: everything it reaches.
        let from_a = n.fanout_cone([a]);
        assert!(from_a.contains(&a) && from_a.contains(&g1) && from_a.contains(&g2));
        // Duplicated seeds collapse.
        assert_eq!(n.fanout_cone([g1, g1, g2]), vec![g1, g2]);
    }

    #[test]
    fn gate_ids_excludes_inputs() {
        let (n, _, _, _) = tiny();
        assert_eq!(n.gate_ids().count(), 2);
        assert!(n.gate_ids().all(|id| !n.gate(id).is_input()));
    }

    #[test]
    fn display_summarizes() {
        let (n, _, _, _) = tiny();
        let s = n.to_string();
        assert!(s.contains("tiny") && s.contains("2 gates"));
    }

    #[test]
    fn check_invariants_accepts_every_preset_and_benchmark() {
        use crate::generators::{benchmark, benchmark_names, preset, preset_names};
        let lib = Library::synthetic_90nm();
        for &name in preset_names() {
            let n = preset(name, &lib).expect("known preset");
            assert_eq!(n.check_invariants(), Ok(()), "{name}");
        }
        for &name in benchmark_names() {
            let n = benchmark(name, &lib).expect("known benchmark");
            assert_eq!(n.check_invariants(), Ok(()), "{name}");
        }
    }

    /// `a` feeds `g = NAND(a, a)` and `h = INV(a)`; `g` feeds `y`.
    fn fanout_twice() -> Netlist {
        let mut b = NetlistBuilder::new("twice");
        let a = b.input("a");
        let g = b.gate("g", LogicFunction::Nand, &[a, a]);
        let h = b.gate("h", LogicFunction::Inv, &[a]);
        let y = b.gate("y", LogicFunction::Nor, &[g, h]);
        b.mark_output(y);
        b.build().expect("valid")
    }

    #[test]
    fn fanouts_are_the_fanins_reversed_once_per_pin() {
        let n = fanout_twice();
        let id = |name| n.gate_by_name(name).expect("named");
        assert_eq!(n.gate(id("a")).fanouts(), &[id("g"), id("g"), id("h")]);
        assert_eq!(n.gate(id("g")).fanouts(), &[id("y")]);
        assert_eq!(n.gate(id("y")).fanouts(), &[] as &[GateId]);
        assert_eq!(n.check_invariants(), Ok(()));
    }

    #[test]
    fn check_invariants_rejects_hand_corrupted_tables() {
        let corrupt = |edit: fn(&mut Netlist)| {
            let mut n = fanout_twice();
            edit(&mut n);
            n.check_invariants()
        };
        // One pin's fanout entry dropped: `a` lists `g` once, not twice.
        let lost_pin = corrupt(|n| {
            n.fanouts.ids.remove(0);
            for o in &mut n.fanouts.offsets[1..] {
                *o -= 1;
            }
        });
        assert_eq!(lost_pin, Err(NetlistError::UnknownSignal("g".into())));
        // `a`'s readers out of (reader, pin) order.
        let swapped = corrupt(|n| n.fanouts.ids.swap(1, 2));
        assert_eq!(swapped, Err(NetlistError::UnknownSignal("g".into())));
        // An extra entry in `y`'s (empty) fanout row.
        let extra = corrupt(|n| {
            n.fanouts.ids.push(GateId::new(0));
            *n.fanouts.offsets.last_mut().expect("rows") += 1;
        });
        assert_eq!(extra, Err(NetlistError::UnknownSignal("y".into())));
        let out_of_range = corrupt(|n| n.fanouts.ids[0] = GateId::new(9));
        assert_eq!(
            out_of_range,
            Err(NetlistError::NodeOutOfRange { index: 9, nodes: 4 })
        );
        let descending = corrupt(|n| n.fanouts.offsets.swap(1, 2));
        assert_eq!(descending, Err(NetlistError::Malformed("fanout offsets")));
        let short = corrupt(|n| {
            n.fanins.offsets.pop();
        });
        assert_eq!(short, Err(NetlistError::Malformed("fanin offsets")));
        // A fanin that does not precede its reader.
        let backwards = corrupt(|n| n.fanins.ids[0] = GateId::new(2));
        assert_eq!(backwards, Err(NetlistError::Cycle("g".into())));
    }

    #[test]
    fn offsets_past_u32_are_a_typed_error() {
        let len = u32::MAX as usize + 1;
        assert_eq!(offset(len - 1, "fanin pins"), Ok(u32::MAX));
        let err = offset(len, "name bytes").expect_err("past u32");
        assert_eq!(
            err,
            NetlistError::TooLarge {
                table: "name bytes",
                len
            }
        );
        assert_eq!(
            err.to_string(),
            "netlist too large: 4294967296 name bytes exceed u32 offsets"
        );
    }

    #[test]
    fn names_sharing_a_hash_chain_resolve_by_their_bytes() {
        let names = ["a", "bb", "ccc"];
        let name_of = |j: usize| names[j];
        let mut index = NameIndex::with_capacity(0);
        // Every name on one chain: keys that make them collide are out
        // of reach, so link them by hand under each name's hash.
        for (i, name) in names.iter().enumerate() {
            index.next.push(i.checked_sub(1).map_or(NO_NODE, to_u32));
            assert!(index.get(name, name_of).is_none());
        }
        for name in ["a", "bb", "ccc", "zz"] {
            index.heads.insert(index.keys.hash_one(name), 2);
        }
        assert_eq!(index.get("a", name_of), Some(0));
        assert_eq!(index.get("bb", name_of), Some(1));
        assert_eq!(index.get("ccc", name_of), Some(2));
        assert_eq!(index.get("zz", name_of), None);
        assert_eq!(index.get("q", name_of), None);
        assert!(!index.insert("bb", name_of), "a chained duplicate");

        // Statement `i` becomes node `to[i]`, and node 0 joins as `clk`.
        let to = [3, 1, 2, 4].map(GateId::new);
        index.renumber(&to, 5, Some((GateId::new(0), "clk")));
        let nodes = ["clk", "bb", "ccc", "a", "bb"];
        let name_of = |j: usize| nodes[j];
        for (j, name) in nodes.iter().enumerate().take(4) {
            assert_eq!(index.get(name, name_of), Some(j), "{name}");
        }
    }

    #[test]
    fn equality_compares_structure_not_the_keyed_index() {
        let text = crate::iscas::write_bench(&fanout_twice());
        let parse = |text: &str| crate::iscas::parse_bench(text, "twice").expect("valid");
        let (first, second) = (parse(&text), parse(&text));
        assert_ne!(
            first.index.keys.hash_one("a"),
            second.index.keys.hash_one("a"),
            "each netlist keys its own index"
        );
        assert_eq!(first, second);
        let copy = first.clone();
        assert_eq!(copy, first);
        for id in first.node_ids() {
            assert_eq!(copy.gate_by_name(first.gate(id).name()), Some(id));
        }

        let renamed = parse(&text.replace('a', "b"));
        assert_ne!(renamed, first, "one name differs");
        let reordered = parse(&text.replace("NOR(g, h)", "NOR(h, g)"));
        assert_ne!(reordered, first, "one fanin order differs");
        let mut flagged = first.clone();
        flagged.output_flags[0] = true;
        assert_ne!(flagged, first, "one output flag differs");
    }

    #[test]
    fn gate_id_display() {
        assert_eq!(GateId::new(5).to_string(), "n5");
        assert_eq!(GateId::new(5).index(), 5);
    }
}
