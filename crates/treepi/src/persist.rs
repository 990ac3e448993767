//! Index persistence: a compact little-endian binary format so a
//! preprocessed database (the expensive part — mining plus center
//! extraction) is paid once and reloaded instantly, the way the paper's
//! motivating "search and registration systems" operate.
//!
//! A file holds the index's primary facts, each exactly once (version 5):
//!
//! ```text
//! magic    "TPI5"
//! params   α u32, β f64, η u32, γ f64, δ (tag u8, runs u64)
//! database |db| u32, |db| × graph, |db| × active flag u8
//! features |F| u32, |F| × { tree graph, posting list }
//! mining   mined u64 (frequent trees counted, `BuildStats::mined`), truncated u8
//! epoch    maintenance epoch u64
//! checksum FNV-1a 64 of every byte between the magic and here
//!
//! graph         n u32, n × vertex label u32, m u32, m × (u, v, label) u32
//! posting list  k u32, k × graph id u32, k × end offset u32,
//!               (last end offset) × center position id u32
//! ```
//!
//! A posting list is the feature's support set with, rank-aligned to it,
//! the end offset of each graph's run of center positions — the heap
//! layout of [`Feature`], written column by column. Position ids are vertex
//! or edge ids according to the center of the feature's tree; the heap
//! keeps the same 4-byte ids, so the columns move in and out verbatim. A
//! tree is written decoded from its feature's canonical string, so in
//! canonical vertex order; any numbering of it loads to the same feature.
//! Everything else an index holds — the hash directory, the shape filter,
//! the per-vertex signatures ([`crate::sig`]) and the [`TreePiIndex::stats`]
//! counters — is a function of these facts and is recomputed on load, so no
//! two parts of a file can disagree. A removed graph's slot is the empty
//! graph in memory and so in the file; the loader blanks inactive slots
//! whatever the file holds there.
//!
//! [`TreePiIndex::load`] returns an error or a sound index, never a bad
//! one. The checksum catches accidental damage (any single changed byte,
//! any truncation). Independently of it — a checksum can be recomputed —
//! every count is bounded by the bytes that remain before anything is
//! allocated for it, and everything a query indexes with is checked:
//! supports strictly increasing and inside the database, offsets strictly
//! increasing, every center position inside its graph (a removed graph's
//! blank slot has none), every label at most
//! [`graph_core::MAX_LABEL`] (canonical strings offset labels past their
//! tags), no two features with one canonical string, a fixed δ at most
//! `MAX_FIXED_DELTA` (every query loops over it), and σ(1) = 1 (an index
//! that misses a single edge of the database answers queries short). A
//! file crafted past those checks can make answers wrong, but cannot make
//! a query panic or spin.
//!
//! The maintenance epoch is part of the format because epoch-keyed result
//! caches survive across save/load boundaries only if the epoch does too:
//! were a reloaded index to restart at 0, a cache that saw epoch N before
//! the reload would conflate pre- and post-reload states (and any
//! maintenance applied between save and reload would be invisible to
//! invalidation).
//!
//! Only version 5 loads. Files of the earlier versions are rejected with an
//! error naming the version — rebuild the index file with this version:
//! `TPI1`–`TPI3` stored derived data next to the facts and carried no
//! checksum, and `TPI4` stored two mining limits after δ, which the miner no
//! longer has.

use crate::index::{blank_slot, Feature, TreePiIndex};
use crate::params::{Delta, TreePiParams, MAX_FIXED_DELTA};
use bytes::BufMut;
use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId, MAX_LABEL};
use mining::SigmaFn;
use std::io::{self, Read, Write};
use tree_core::{CanonString, SubtreeEncoder, Tree};

const MAGIC: &[u8; 4] = b"TPI5";

fn bad(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("treepi index file: {msg}"),
    )
}

/// FNV-1a, 64 bit. Every step is a bijection of the running state, so any
/// single changed byte changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checked little-endian cursor: every read fails on a short buffer instead
/// of panicking, and counts are bounded by what can still follow.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let (head, tail) = self
            .0
            .split_first_chunk::<N>()
            .ok_or_else(|| bad("unexpected end of data"))?;
        self.0 = tail;
        Ok(*head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> io::Result<f64> {
        self.take().map(f64::from_le_bytes)
    }

    fn flag(&mut self) -> io::Result<bool> {
        match self.u8()? {
            flag @ 0..=1 => Ok(flag == 1),
            _ => Err(bad("flag is not 0 or 1")),
        }
    }

    fn label(&mut self) -> io::Result<u32> {
        match self.u32()? {
            label @ 0..=MAX_LABEL => Ok(label),
            _ => Err(bad("label exceeds the maximum")),
        }
    }

    /// Fail — before anything is allocated for them — unless `n` records of
    /// at least `min_size` bytes each can still follow.
    fn bound(&self, n: usize, min_size: usize) -> io::Result<usize> {
        if n > self.0.len() / min_size {
            return Err(bad("count exceeds the data that follows"));
        }
        Ok(n)
    }

    /// A `u32` count of records of at least `min_size` bytes each.
    fn count(&mut self, min_size: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        self.bound(n, min_size)
    }

    fn u32s(&mut self, n: usize) -> io::Result<Vec<u32>> {
        let (head, tail) = self.0.split_at(4 * self.bound(n, 4)?);
        self.0 = tail;
        let word = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        Ok(head.chunks_exact(4).map(word).collect())
    }
}

fn put_graph(buf: &mut Vec<u8>, g: &Graph) {
    buf.put_u32_le(g.vertex_count() as u32);
    for v in g.vertices() {
        buf.put_u32_le(g.vlabel(v).0);
    }
    buf.put_u32_le(g.edge_count() as u32);
    for e in g.edges() {
        buf.put_u32_le(e.u.0);
        buf.put_u32_le(e.v.0);
        buf.put_u32_le(e.label.0);
    }
}

fn get_graph(r: &mut Reader) -> io::Result<Graph> {
    let n = r.count(4)?;
    let mut b = GraphBuilder::with_capacity(n, 0);
    for _ in 0..n {
        b.add_vertex(VLabel(r.label()?));
    }
    for _ in 0..r.count(12)? {
        let (u, v, l) = (VertexId(r.u32()?), VertexId(r.u32()?), ELabel(r.label()?));
        b.add_edge(u, v, l).map_err(|e| bad(&e.to_string()))?;
    }
    Ok(b.build())
}

fn put_feature(buf: &mut Vec<u8>, f: &Feature) {
    put_graph(buf, f.tree().graph());
    let (offsets, positions) = f.columns();
    buf.put_u32_le(f.support.len() as u32);
    for &x in f.support.iter().chain(offsets).chain(positions) {
        buf.put_u32_le(x);
    }
}

fn get_feature(r: &mut Reader, db: &[Graph], enc: &mut SubtreeEncoder) -> io::Result<Feature> {
    let tree = Tree::from_graph(get_graph(r)?).map_err(|_| bad("feature is not a tree"))?;
    let canon = CanonString(enc.encode(tree.graph(), VertexId(0), |_| true).0.to_vec());
    let k = r.u32()? as usize;
    let support = r.u32s(k)?;
    let offsets = r.u32s(k)?;
    let positions = r.u32s(offsets.last().map_or(0, |&end| end as usize))?;
    Feature::from_columns(canon, support, offsets, positions, db).map_err(bad)
}

impl TreePiIndex {
    /// Serialize the index. Equal indexes serialize to equal bytes (nothing
    /// transient — timings, capacities, hash order — reaches the file).
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
        buf.put_slice(MAGIC);
        let p = self.params();
        buf.put_u32_le(p.sigma.alpha as u32);
        buf.put_f64_le(p.sigma.beta);
        buf.put_u32_le(p.sigma.eta as u32);
        buf.put_f64_le(p.gamma);
        let (tag, runs) = match p.delta {
            Delta::Fixed(n) => (0, n as u64),
            Delta::QuerySize => (1, 0),
        };
        buf.put_u8(tag);
        buf.put_u64_le(runs);
        buf.put_u32_le(self.db().len() as u32);
        for g in self.db() {
            put_graph(&mut buf, g);
        }
        for gid in 0..self.db().len() as u32 {
            buf.put_u8(self.is_active(gid) as u8);
        }
        buf.put_u32_le(self.feature_count() as u32);
        for f in self.features() {
            put_feature(&mut buf, f);
        }
        let stats = self.stats();
        buf.put_u64_le(stats.mined as u64);
        buf.put_u8(stats.truncated as u8);
        buf.put_u64_le(self.maintenance_epoch());
        let sum = checksum(&buf[MAGIC.len()..]);
        buf.put_u64_le(sum);
        w.write_all(&buf)
    }

    /// Deserialize an index previously written by [`Self::save`]: an error,
    /// or an index equal to the saved one (see the module documentation for
    /// what is checked).
    pub fn load<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        let body = match data.split_first_chunk::<4>() {
            Some((magic, rest)) if magic == MAGIC => rest,
            Some(([b'T', b'P', b'I', v @ b'1'..=b'4'], _)) => {
                let what = match v {
                    b'4' => "stores mining limits",
                    _ => "stores derived data, no checksum",
                };
                return Err(bad(&format!(
                    "version-{} file ({what}); rebuild the index file",
                    char::from(*v)
                )));
            }
            _ => return Err(bad("bad magic")),
        };
        let (body, sum) = body
            .split_last_chunk::<8>()
            .ok_or_else(|| bad("unexpected end of data"))?;
        if checksum(body) != u64::from_le_bytes(*sum) {
            return Err(bad("checksum mismatch (corrupt or truncated)"));
        }
        let mut r = Reader(body);
        let sigma = SigmaFn {
            alpha: r.u32()? as usize,
            beta: r.f64()?,
            eta: r.u32()? as usize,
        };
        if sigma.threshold(1) != Some(1) {
            return Err(bad("σ(1) is not 1, so the index would not be complete"));
        }
        let gamma = r.f64()?;
        let delta = match (r.u8()?, r.u64()?) {
            (0, n) if n <= MAX_FIXED_DELTA as u64 => Delta::Fixed(n as usize),
            (0, _) => return Err(bad("delta exceeds the maximum")),
            (1, 0) => Delta::QuerySize,
            _ => return Err(bad("unknown delta encoding")),
        };
        let params = TreePiParams {
            sigma,
            gamma,
            delta,
        };
        // A graph is at least two counts, plus its active flag.
        let n_db = r.count(9)?;
        let mut db = (0..n_db)
            .map(|_| get_graph(&mut r))
            .collect::<io::Result<Vec<_>>>()?;
        let active = (0..n_db)
            .map(|_| r.flag())
            .collect::<io::Result<Vec<_>>>()?;
        // A removed graph's slot is blank, whatever the file holds there —
        // before the features are checked against the database, so no
        // posting list can point into a removed graph.
        for (g, _) in db.iter_mut().zip(&active).filter(|(_, &alive)| !alive) {
            *g = blank_slot();
        }
        // A feature is at least a tree's two counts and a posting count.
        let n_features = r.count(12)?;
        let mut enc = SubtreeEncoder::default(); // one for every tree: it keeps its buffers
        let features = (0..n_features)
            .map(|_| get_feature(&mut r, &db, &mut enc))
            .collect::<io::Result<Vec<_>>>()?;
        let mined = r.u64()? as usize;
        let truncated = r.flag()?;
        let maintenance_epoch = r.u64()?;
        if !r.0.is_empty() {
            return Err(bad("trailing bytes"));
        }
        let sigs = db.iter().map(crate::sig::graph_sigs).collect();
        let mut idx = TreePiIndex::assemble(params, db, active, features, sigs).map_err(bad)?;
        (idx.mined, idx.truncated) = (mined, truncated);
        idx.maintenance_epoch = maintenance_epoch;
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FeatureId;
    use graph_core::graph_from;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn sample_index() -> TreePiIndex {
        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ];
        TreePiIndex::build(db, TreePiParams::quick())
    }

    /// §7.1 maintenance on top of [`sample_index`]: a novel single-edge
    /// feature appended behind the mined ones, and a tombstone.
    fn churned_index() -> TreePiIndex {
        let mut idx = sample_index();
        idx.insert(graph_from(&[5, 5], &[(0, 1, 9)]));
        idx.remove(0);
        idx
    }

    fn saved(idx: &TreePiIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        bytes
    }

    fn load(bytes: &[u8]) -> io::Result<TreePiIndex> {
        TreePiIndex::load(&mut &bytes[..])
    }

    fn queries() -> Vec<Graph> {
        vec![
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[5, 5], &[(0, 1, 9)]),
            graph_from(&[7, 8], &[(0, 1, 0)]),
        ]
    }

    fn answers(idx: &TreePiIndex) -> Vec<Vec<u32>> {
        queries().iter().map(|q| idx.query(q).matches).collect()
    }

    /// Everything observable about `a` equals `b`: primary facts and every
    /// structure derived from them.
    fn assert_same_index(a: &TreePiIndex, b: &TreePiIndex) {
        assert_eq!(a.db(), b.db());
        assert_eq!(a.feature_count(), b.feature_count());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.maintenance_epoch(), b.maintenance_epoch());
        for gid in 0..a.db().len() as u32 {
            assert_eq!(a.is_active(gid), b.is_active(gid));
            assert_eq!(a.vertex_sigs(gid), b.vertex_sigs(gid));
        }
        for (i, (fa, fb)) in a.features().iter().zip(b.features()).enumerate() {
            let fid = FeatureId(i as u32);
            assert_eq!(fa.canon, fb.canon);
            assert_eq!(fa.support, fb.support);
            assert_eq!(b.feature_by_canon(&fa.canon), Some(fid));
            for gid in 0..a.db().len() as u32 {
                assert!(a
                    .center_positions_of(fid, gid)
                    .eq(b.center_positions_of(fid, gid)));
            }
        }
        assert_eq!(answers(a), answers(b));
    }

    #[test]
    fn round_trip_is_lossless_and_canonical() {
        // Before and after maintenance: the loaded index equals the saved
        // one, and saving it again reproduces the file byte for byte.
        for idx in [sample_index(), churned_index()] {
            let bytes = saved(&idx);
            let loaded = load(&bytes).unwrap();
            assert_same_index(&idx, &loaded);
            assert!(loaded.sigs_consistent() && loaded.postings_consistent());
            assert!(loaded.directory_consistent());
            assert_eq!(saved(&loaded), bytes);
        }
        let loaded = load(&saved(&churned_index())).unwrap();
        assert!(!loaded.is_active(0));
        assert_eq!(loaded.active_count(), 3);
        let q = graph_from(&[5, 5], &[(0, 1, 9)]);
        assert_eq!(loaded.query(&q).matches, vec![3]);
    }

    /// A file whose feature trees are numbered otherwise — as the miner
    /// numbers them, in files written before trees were kept as canonical
    /// strings — loads to the same index and re-saves in canonical order.
    #[test]
    fn trees_in_any_vertex_numbering_load_to_the_same_index() {
        let idx = churned_index();
        let bytes = saved(&idx);
        let mut db_part = Vec::new();
        idx.db().iter().for_each(|g| put_graph(&mut db_part, g));
        // The features follow the 41-byte head, the graphs, their active
        // flags and |F|.
        let mut at = 41 + db_part.len() + idx.db().len() + 4;
        let mut m = bytes.clone();
        let mut renumbered = 0;
        for f in idx.features() {
            let tree = f.tree();
            let g = tree.graph();
            let mut written = Vec::new();
            put_graph(&mut written, g);
            assert_eq!(bytes[at..at + written.len()], written[..]);
            // The same tree, vertices numbered backwards and edges listed
            // backwards, each from its other end.
            let last = g.vertex_count() as u32 - 1;
            let mut b = GraphBuilder::new();
            for v in g.vertices().collect::<Vec<_>>().into_iter().rev() {
                b.add_vertex(g.vlabel(v));
            }
            for e in g.edges().iter().rev() {
                let (u, v) = (VertexId(last - e.v.0), VertexId(last - e.u.0));
                b.add_edge(u, v, e.label).expect("a tree edge");
            }
            let mut other = Vec::new();
            put_graph(&mut other, &b.build());
            renumbered += (other != written) as usize;
            m[at..at + other.len()].copy_from_slice(&other);
            let mut feature = Vec::new();
            put_feature(&mut feature, f);
            at += feature.len();
        }
        assert!(renumbered > 1, "{renumbered} trees renumbered");
        assert_ne!(m, bytes);
        reseal(&mut m);
        let loaded = load(&m).unwrap();
        assert_same_index(&idx, &loaded);
        assert!(loaded.postings_consistent() && loaded.directory_consistent());
        assert_eq!(saved(&loaded), bytes);
    }

    #[test]
    fn epoch_survives_save_load_insert_round_trip() {
        // Churn, save, reload: the epoch must come back verbatim (an
        // epoch-keyed cache that saw epoch N before the reload must not be
        // able to conflate pre- and post-reload states), and further
        // maintenance must keep counting from there, never from 0.
        let idx = churned_index();
        let epoch = idx.maintenance_epoch();
        assert_eq!(epoch, 2);
        let mut loaded = load(&saved(&idx)).unwrap();
        assert_eq!(loaded.maintenance_epoch(), epoch);
        let gid = loaded.insert(graph_from(&[6, 6], &[(0, 1, 9)]));
        assert_eq!(loaded.maintenance_epoch(), epoch + 1);
        assert!(loaded.remove(gid));
        assert_eq!(loaded.maintenance_epoch(), epoch + 2);
        // And a second round trip carries the advanced epoch onward.
        let again = load(&saved(&loaded)).unwrap();
        assert_eq!(again.maintenance_epoch(), epoch + 2);
    }

    #[test]
    fn rejects_earlier_versions() {
        for version in ['1', '2', '3', '4'] {
            let mut bytes = saved(&sample_index());
            bytes[3] = version as u8;
            let err = load(&bytes).err().expect("old version accepted");
            let msg = err.to_string();
            assert!(msg.contains(&format!("version-{version}")), "{msg}");
            assert!(msg.contains("rebuild the index file"), "{msg}");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load(b"NOPE").err().expect("bad magic accepted");
        assert!(err.to_string().contains("bad magic"));
    }

    /// Every single-byte mutation under three masks, then every truncation.
    fn mutants(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
        let flips = (0..bytes.len()).flat_map(move |at| {
            [0x01u8, 0x80, 0xFF].into_iter().map(move |mask| {
                let mut m = bytes.to_vec();
                m[at] ^= mask;
                (format!("byte {at} ^ {mask:#04x}"), m)
            })
        });
        let cuts = (0..bytes.len()).map(|cut| (format!("cut at {cut}"), bytes[..cut].to_vec()));
        flips.chain(cuts)
    }

    /// Make the trailing checksum match again, as a hostile writer would.
    fn reseal(bytes: &mut [u8]) {
        if let Some((body, sum)) = bytes.split_last_chunk_mut::<8>() {
            *sum = checksum(body.get(MAGIC.len()..).unwrap_or(&[])).to_le_bytes();
        }
    }

    #[test]
    fn mutation_sweep_never_yields_a_bad_index() {
        let bytes = saved(&churned_index());
        let mut resealed_loads = 0;
        for (what, mut m) in mutants(&bytes) {
            // Accidental damage: the checksum rejects it.
            assert!(load(&m).is_err(), "{what}: damaged file loaded");
            // Hostile damage (checksum recomputed): rejected by validation,
            // or an index whose invariants hold and that answers queries
            // without panicking — wrong answers are the writer's business.
            reseal(&mut m);
            let Ok(idx) = load(&m) else { continue };
            resealed_loads += 1;
            assert!(idx.postings_consistent(), "{what}: bad postings loaded");
            assert!(idx.sigs_consistent(), "{what}: bad signatures loaded");
            let ran = catch_unwind(AssertUnwindSafe(|| (answers(&idx), idx.heap_bytes())));
            assert!(ran.is_ok(), "{what}: loaded index panicked a query");
        }
        assert!(resealed_loads > 0, "hostile leg never got past the loader");
    }

    #[test]
    fn inactive_slots_load_blank() {
        // Graph 3 is a lone vertex, in no posting list; graph 1 is in many.
        let mut db = sample_index().db().to_vec();
        db.push(graph_from(&[4], &[]));
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let bytes = saved(&idx);
        let mut db_part = Vec::new();
        idx.db().iter().for_each(|g| put_graph(&mut db_part, g));
        // The active flags follow the 41-byte head and the graphs.
        let flags_at = 41 + db_part.len();
        assert_eq!(bytes[flags_at..flags_at + 4], [1; 4]);
        // Flagged inactive in a resealed file, the lone vertex loads blank.
        let mut m = bytes.clone();
        m[flags_at + 3] = 0;
        reseal(&mut m);
        let loaded = load(&m).expect("an unlisted graph flagged inactive");
        assert!(!loaded.is_active(3));
        assert_eq!(loaded.db()[3], blank_slot());
        assert!(loaded.sigs_consistent() && loaded.vertex_sigs(3).is_empty());
        // Graph 1 flagged inactive leaves posting lists pointing into a
        // blank slot: refused.
        let mut m = bytes;
        m[flags_at + 1] = 0;
        reseal(&mut m);
        let err = load(&m).err().expect("posting list into a removed graph");
        let msg = err.to_string();
        assert!(msg.contains("center position outside its graph"), "{msg}");
    }

    #[test]
    fn rejects_a_feature_tree_stored_twice() {
        // Append a second copy of feature 0 behind the last feature and
        // raise |F|: every column is valid and the copies are not
        // neighbours in the file — only the sorted directory can tell.
        let idx = sample_index();
        let bytes = saved(&idx);
        let mut db_part = Vec::new();
        idx.db().iter().for_each(|g| put_graph(&mut db_part, g));
        // |F| follows the 41-byte head, the graphs and their active flags;
        // mined, truncated and the epoch (17 bytes) precede the checksum.
        let count_at = 41 + db_part.len() + idx.db().len();
        let n = idx.feature_count() as u32;
        assert_eq!(bytes[count_at..count_at + 4], n.to_le_bytes());
        let tail_at = bytes.len() - 8 - 17;
        let mut m = bytes[..count_at].to_vec();
        m.put_u32_le(n + 1);
        m.extend_from_slice(&bytes[count_at + 4..tail_at]);
        put_feature(&mut m, &idx.features()[0]);
        m.extend_from_slice(&bytes[tail_at..]);
        reseal(&mut m);
        let err = load(&m).err().expect("duplicate feature accepted");
        let msg = err.to_string();
        assert!(
            msg.contains("two features share a canonical string"),
            "{msg}"
        );
    }

    #[test]
    fn bounds_labels() {
        // Bytes 45..49 are the first vertex label of graph 0, 73..77 its
        // first edge label. A label above the bound would overflow the tag
        // offset of canonical strings (a panic in debug builds, a forged
        // tag token in release builds).
        let bytes = saved(&sample_index());
        for at in [45, 73] {
            let mut m = bytes.clone();
            m[at..at + 4].copy_from_slice(&MAX_LABEL.to_le_bytes());
            reseal(&mut m);
            assert!(load(&m).is_ok(), "largest label at {at} refused");
            m[at..at + 4].copy_from_slice(&(MAX_LABEL + 1).to_le_bytes());
            reseal(&mut m);
            let err = load(&m).err().expect("oversized label accepted");
            assert!(err.to_string().contains("label exceeds the maximum"));
        }
    }

    #[test]
    fn oversized_counts_and_eta_do_not_allocate() {
        // Byte 40 is the high byte of |db|; η is the u32 at offset 16. Both
        // used to reach `Vec::with_capacity` unchecked (308 GB on load,
        // 17 GB on the first query).
        let bytes = saved(&sample_index());
        let mut m = bytes.clone();
        m[40] ^= 0xFF;
        reseal(&mut m);
        assert!(load(&m).is_err());
        let mut m = bytes.clone();
        m[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut m);
        let idx = load(&m).unwrap();
        assert_eq!(idx.params().sigma.eta, u32::MAX as usize);
        assert_eq!(answers(&idx), answers(&sample_index()));
    }

    #[test]
    fn rejects_sigma_one_above_one() {
        // α is the u32 at offset 4, β the f64 at offset 8: α = 0 with β = 2
        // sets σ(1) = 3, and single edges in fewer graphs go unindexed.
        let mut m = saved(&sample_index());
        m[4..8].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut m);
        let err = load(&m).err().expect("σ(1) = 3 accepted");
        assert!(err.to_string().contains("σ(1) is not 1"), "{err}");
        // With β = 0 as well, σ ≡ 1 up to η: complete again.
        m[8..16].copy_from_slice(&0f64.to_le_bytes());
        reseal(&mut m);
        let idx = load(&m).expect("σ ≡ 1 refused");
        assert_eq!(idx.params().sigma.threshold(1), Some(1));
    }

    #[test]
    fn bounds_fixed_delta() {
        // Byte 28 is δ's tag (0 = fixed), 29..37 its run count, which every
        // query loops over: u64::MAX runs would never return.
        let bytes = saved(&sample_index());
        let mut m = bytes.clone();
        m[28] = 0;
        m[29..37].copy_from_slice(&(MAX_FIXED_DELTA as u64).to_le_bytes());
        reseal(&mut m);
        let idx = load(&m).expect("largest fixed delta refused");
        assert_eq!(idx.params().delta.resolve(4), MAX_FIXED_DELTA);
        for runs in [MAX_FIXED_DELTA as u64 + 1, u64::MAX] {
            m[29..37].copy_from_slice(&runs.to_le_bytes());
            reseal(&mut m);
            let err = load(&m).err().expect("oversized delta accepted");
            assert!(err.to_string().contains("delta exceeds the maximum"));
        }
    }
}
