//! The three workloads: their inputs (generated from the seed), their
//! plaintext oracle, the client stacks they run on, and one op of each
//! class. Everything here calls the library's public API only.

use crate::trace::{span, Layer, Recorder, Traced};
use ssx_core::encode::numeric_pre;
use ssx_core::protocol::Request;
use ssx_core::transport::Transport;
use ssx_core::{
    connect_fleet_mux, encode_document, encode_document_at, encode_document_fleet, fleet_mac_key,
    party_server, reference_aggregate, reference_eval, run_aggregate, serve_tcp_mux, AggOp,
    AggregateSpec, ChaosConfig, ChaosTransport, ClientFilter, CoreError, Engine, EngineKind,
    FleetLeg, FleetSpec, FleetTransport, LocalTransport, MapFile, MatchRule, MuxPool, RefAggregate,
    ServerStats, ShardRouter, ShardSpec, ShardedServer, TcpTransport,
};
use ssx_poly::{Packer, RingCtx};
use ssx_prg::{Prg, Seed};
use ssx_store::{Loc, Row, Wal};
use ssx_xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssx_xml::Document;
use ssx_xpath::{parse_query, Query};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The Table-1 chain; queries 1..=9 are its prefixes.
const TABLE1_CHAIN: &str = "/site/regions/europe/item/description/parlist/listitem/text/keyword";

/// The Table-2 strictness queries.
const TABLE2: [&str; 5] = [
    "/site//europe/item",
    "/site//europe//item",
    "/site/*/person//city",
    "/*/*/open_auction/bidder/date",
    "//bidder/date",
];

/// Round-trip time injected on every fleet-mux wave.
pub const FLEET_RTT: Duration = Duration::from_millis(1);

/// Fleet shape of fleet-mux: 3 parties, threshold 2, 2 data shards each.
const FLEET_PARTIES: usize = 3;
const FLEET_THRESHOLD: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plane {
    /// In-process shards behind `ShardRouter`, optionally with a WAL.
    Local { shards: u32, wal: bool },
    /// A 3-party mux fleet on loopback hosts in this process.
    FleetMux { shards: u32 },
}

/// An aggregate: predicate text, op, optional inclusive range.
pub type AggDef = (String, AggOp, Option<(u64, u64)>);

/// How one pass orders its ops. Every write clears the client's share
/// cache, so where a read sits relative to the writes changes its cost
/// where the working set fits that cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// All ops in the seed's order: the writes sample the host across the
    /// pass instead of all at one moment.
    Shuffled,
    /// The reads in the seed's order, then the writes, so that only the
    /// pass's first read runs on a cleared cache.
    ReadsThenWrites,
    /// Steps of one write, one aggregate and one query; the seed pairs the
    /// aggregates and queries with the steps.
    Steps,
}

/// A workload's fixed shape; the seed fills in the documents and op order.
pub struct Spec {
    pub name: &'static str,
    pub plane: Plane,
    /// Base document size (XMark target bytes).
    pub base_bytes: usize,
    /// Size of each inserted document.
    pub doc_bytes: usize,
    /// Inserted documents kept live besides the base document; a write op
    /// inserts the next pool document and deletes the oldest live one, so
    /// the store's size stays constant.
    pub live_docs: usize,
    /// Distinct documents the writes cycle through. A write's latency is
    /// its document's best time, so a small pool gives each document many
    /// samples; it must exceed `live_docs`.
    pub pool_docs: usize,
    pub queries: Vec<(String, EngineKind, MatchRule)>,
    pub aggs: Vec<AggDef>,
    /// Times each aggregate runs per pass.
    pub agg_repeats: usize,
    pub writes_per_pass: usize,
    pub layout: Layout,
    /// Nominal seconds per pass on the reference host (2-core KVM Xeon at
    /// 2.0 GHz); sets how many passes a run of `--seconds` makes.
    pub pass_seconds: f64,
}

fn advanced_eq(q: &str) -> (String, EngineKind, MatchRule) {
    (q.to_string(), EngineKind::Advanced, MatchRule::Equality)
}

/// Queries 1..=9 of Table 1: the prefixes of the chain.
fn table1() -> Vec<String> {
    let steps: Vec<&str> = TABLE1_CHAIN.trim_start_matches('/').split('/').collect();
    (1..=steps.len())
        .map(|n| format!("/{}", steps[..n].join("/")))
        .collect()
}

/// COUNT, SUM and AVG over `//item/quantity`, with and without a range.
/// AVG without a range is left out: it runs exactly the SUM protocol, and
/// five ops keep the class's p50 inside one op's cluster.
fn quantity_aggs() -> Vec<AggDef> {
    [
        (AggOp::Count, None),
        (AggOp::Count, Some((1, 1))),
        (AggOp::Sum, None),
        (AggOp::Sum, Some((1, 1))),
        (AggOp::Avg, Some((1, 1))),
    ]
    .into_iter()
    .map(|(op, range)| ("//item/quantity".to_string(), op, range))
    .collect()
}

pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "paper-local" => {
            let mut queries = Vec::new();
            for q in table1().iter().map(String::as_str).chain(TABLE2) {
                for kind in [EngineKind::Simple, EngineKind::Advanced] {
                    for rule in [MatchRule::Containment, MatchRule::Equality] {
                        queries.push((q.to_string(), kind, rule));
                    }
                }
            }
            // The 56 Fig 5/6 ops plus the full chain once more, so that the
            // class has an odd op count and its p50 lies inside one op's
            // cluster instead of in the gap between two.
            queries.push(advanced_eq(TABLE1_CHAIN));
            Spec {
                name: "paper-local",
                plane: Plane::Local {
                    shards: 1,
                    wal: false,
                },
                base_bytes: 1024 * 1024,
                doc_bytes: 16 * 1024,
                live_docs: 0,
                pool_docs: 4,
                queries,
                aggs: quantity_aggs(),
                // Twice, so that each aggregate's best time has as many
                // samples behind it as fleet-mux's.
                agg_repeats: 2,
                writes_per_pass: 28,
                // The working set is 6x the share cache: a write's clear
                // costs little here.
                layout: Layout::Shuffled,
                pass_seconds: 3.0,
            }
        }
        "fleet-mux" => Spec {
            name: "fleet-mux",
            plane: Plane::FleetMux { shards: 2 },
            base_bytes: 96 * 1024,
            // Small inserts keep writes wave-bound like the reads; the
            // client-side split of a 16 KB document per party made the
            // write tail follow CPU contention instead.
            doc_bytes: 4 * 1024,
            live_docs: 0,
            pool_docs: 8,
            // Table 2 plus Table-1 queries 4 and 9: an odd op count, as above.
            queries: TABLE2
                .iter()
                .chain([table1()[3].as_str(), TABLE1_CHAIN].iter())
                .map(|q| advanced_eq(q))
                .collect(),
            aggs: quantity_aggs(),
            agg_repeats: 1,
            writes_per_pass: 6,
            layout: Layout::ReadsThenWrites,
            pass_seconds: 1.0,
        },
        "ingest-mix" => Spec {
            name: "ingest-mix",
            plane: Plane::Local {
                shards: 2,
                wal: true,
            },
            base_bytes: 256 * 1024,
            doc_bytes: 16 * 1024,
            live_docs: 16,
            pool_docs: 17,
            queries: TABLE2.iter().map(|q| advanced_eq(q)).collect(),
            aggs: quantity_aggs(),
            agg_repeats: 1,
            writes_per_pass: 5,
            layout: Layout::Steps,
            pass_seconds: 0.36,
        },
        _ => return None,
    };
    Some(spec)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Query(usize),
    Agg(usize),
    Write,
}

/// The paper's map (77 XMark elements over F_83) and the paper seed.
pub fn secrets() -> (MapFile, Seed) {
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(0x2005))
        .expect("the XMark DTD fits F_83");
    (map, Seed::from_test_key(0x5D4_2005))
}

fn shuffle<T>(v: &mut [T], prg: &mut Prg) {
    for i in (1..v.len()).rev() {
        v.swap(i, prg.next_below(i as u64 + 1) as usize);
    }
}

/// Everything generated from the workload seed, plus the expected answers.
pub struct Inputs {
    pub base_xml: String,
    pub pool: Vec<String>,
    /// One pass, in the seed's order.
    pub pass: Vec<Op>,
    pub queries: Vec<Query>,
    pub aggs: Vec<AggregateSpec>,
    oracle: Oracle,
}

/// Expected answers per document: the store is a forest, so a query's
/// answer is the base document's plus each live document's, shifted by
/// the offset the document was numbered from.
struct Oracle {
    base_q: Vec<Vec<u32>>,
    base_a: Vec<RefAggregate>,
    pool_q: Vec<Vec<Vec<u32>>>,
    pool_a: Vec<Vec<RefAggregate>>,
    /// Rows each pool document occupies in the store.
    pool_rows: Vec<u64>,
}

pub fn inputs(spec: &Spec, seed: u64, map: &MapFile) -> Result<Inputs, CoreError> {
    let mut prg = Prg::from_u64(seed ^ 0x0B5E_55ED);
    let base_xml = generate(&XmarkConfig {
        seed: prg.next_u64(),
        target_bytes: spec.base_bytes,
    });
    let pool: Vec<String> = (0..spec.pool_docs)
        .map(|_| {
            generate(&XmarkConfig {
                seed: prg.next_u64(),
                target_bytes: spec.doc_bytes,
            })
        })
        .collect();
    let reads = (0..spec.queries.len())
        .map(Op::Query)
        .chain((0..spec.agg_repeats).flat_map(|_| (0..spec.aggs.len()).map(Op::Agg)));
    let writes = std::iter::repeat_n(Op::Write, spec.writes_per_pass);
    let pass = match spec.layout {
        Layout::Shuffled => {
            let mut ops: Vec<Op> = reads.chain(writes).collect();
            shuffle(&mut ops, &mut prg);
            ops
        }
        Layout::ReadsThenWrites => {
            let mut ops: Vec<Op> = reads.collect();
            shuffle(&mut ops, &mut prg);
            ops.extend(writes);
            ops
        }
        Layout::Steps => {
            let mut q: Vec<usize> = (0..spec.queries.len()).collect();
            let mut a: Vec<usize> = (0..spec.aggs.len()).collect();
            shuffle(&mut q, &mut prg);
            shuffle(&mut a, &mut prg);
            (0..spec.writes_per_pass)
                .flat_map(|i| {
                    [
                        Op::Write,
                        Op::Agg(a[i % a.len()]),
                        Op::Query(q[i % q.len()]),
                    ]
                })
                .collect()
        }
    };
    let queries = spec
        .queries
        .iter()
        .map(|(q, ..)| Ok(parse_query(q)?.expand_text_predicates()))
        .collect::<Result<Vec<Query>, CoreError>>()?;
    let aggs: Vec<AggregateSpec> = spec
        .aggs
        .iter()
        .map(|(q, op, range)| {
            Ok(AggregateSpec {
                query: parse_query(q)?.expand_text_predicates(),
                op: *op,
                range: *range,
            })
        })
        .collect::<Result<_, CoreError>>()?;
    let ring_len = RingCtx::new(map.p(), map.e())?.len();
    let answers = |xml: &str| -> Result<(Vec<Vec<u32>>, Vec<RefAggregate>), CoreError> {
        let doc = Document::parse(xml).map_err(|e| CoreError::Unsupported(e.to_string()))?;
        let q = queries
            .iter()
            .zip(&spec.queries)
            .map(|(query, (_, _, rule))| reference_eval(&doc, query, *rule))
            .collect::<Result<_, _>>()?;
        let a = aggs
            .iter()
            .map(|s| reference_aggregate(&doc, &s.query, MatchRule::Equality, ring_len, s.range))
            .collect::<Result<_, _>>()?;
        Ok((q, a))
    };
    let (base_q, base_a) = answers(&base_xml)?;
    let mut oracle = Oracle {
        base_q,
        base_a,
        pool_q: Vec::new(),
        pool_a: Vec::new(),
        pool_rows: Vec::new(),
    };
    for xml in &pool {
        let (q, a) = answers(xml)?;
        oracle.pool_q.push(q);
        oracle.pool_a.push(a);
        // The row count of an encode depends on the document alone.
        oracle.pool_rows.push(
            encode_document_at(xml, map, &Seed::from_test_key(0), 0)?
                .table
                .len() as u64,
        );
    }
    Ok(Inputs {
        base_xml,
        pool,
        pass,
        queries,
        aggs,
        oracle,
    })
}

/// A client stack whose servers can be asked for their counters.
pub trait Stack: Transport + Send {
    /// Counters of in-process server filters (`None` when the servers run
    /// behind sockets; those are read after the hosts stop).
    fn server_stats(&self) -> Option<ServerStats>;
}

fn sum_stats(it: impl Iterator<Item = ServerStats>) -> ServerStats {
    it.fold(ServerStats::default(), |mut a, s| {
        a.evaluations += s.evaluations;
        a.eval_cache_hits += s.eval_cache_hits;
        a
    })
}

/// The in-process plane: `ShardRouter::new` over one traced
/// `LocalTransport` per shard, as `ShardRouter::local` wires it.
pub type LocalStack = Traced<ShardRouter<Traced<LocalTransport>>>;

impl Stack for LocalStack {
    fn server_stats(&self) -> Option<ServerStats> {
        Some(sum_stats(
            self.inner()
                .transports()
                .iter()
                .map(|t| t.inner().server().stats()),
        ))
    }
}

/// The fleet as `connect_fleet_mux` builds it, behind the injected RTT.
pub type FleetStack = Traced<ChaosTransport<ShardRouter<FleetTransport<ssx_core::MuxTransport>>>>;
/// The same fleet built leg by leg so every party leg can be traced.
pub type TracedFleetStack =
    Traced<ChaosTransport<ShardRouter<FleetTransport<Traced<ssx_core::MuxTransport>>>>>;

impl<L: Transport + Send + 'static> Stack
    for Traced<ChaosTransport<ShardRouter<FleetTransport<L>>>>
{
    fn server_stats(&self) -> Option<ServerStats> {
        None
    }
}

type Host = (SocketAddr, JoinHandle<Result<ShardedServer, CoreError>>);

/// A ready client plus what it needs to write, check and shut down.
pub struct Db<T: Stack> {
    pub client: ClientFilter<T>,
    wal: Option<Wal>,
    wal_path: Option<PathBuf>,
    hosts: Vec<Host>,
    /// Server-side table bytes of the base document (all shards, parties
    /// and planes) and the XML bytes they encode.
    pub stored_bytes: u64,
    pub input_bytes: u64,
    /// Elements of the base document and the time encoding them took.
    pub elements: u64,
    pub encode_time: Duration,
    /// Live inserted documents, oldest first: (pool index, offset). A
    /// document's root is `offset + 1`.
    live: VecDeque<(usize, u32)>,
    next_doc: usize,
}

fn table_bytes(t: &ssx_store::Table) -> u64 {
    let r = t.size_report();
    (r.poly_bytes + r.structure_bytes + r.index_bytes) as u64
}

fn wal_path(dir: &std::path::Path, tag: &str) -> PathBuf {
    dir.join(format!("ingest-{}-{tag}.wal", std::process::id()))
}

/// Builds the in-process stack: encode, partition, route, attach the WAL,
/// preload the live documents.
pub fn local_db(
    spec: &Spec,
    inp: &Inputs,
    rec: Option<Arc<Recorder>>,
    scratch: &std::path::Path,
    tag: &str,
) -> Result<Db<LocalStack>, CoreError> {
    let Plane::Local { shards, wal } = spec.plane else {
        unreachable!("local_db on a fleet workload")
    };
    let (map, seed) = secrets();
    let out = encode_document(&inp.base_xml, &map, &seed)?;
    let stored_bytes = table_bytes(&out.table);
    let (elements, encode_time) = (out.stats.elements as u64, out.stats.elapsed);
    let server = ShardedServer::from_table(out.table, out.ring, shards)?;
    let spec_s = server.spec();
    let legs = server
        .into_filters()
        .into_iter()
        .map(|f| Traced::new(LocalTransport::new(f), Layer::Leg, rec.clone()))
        .collect();
    let router = Traced::new(
        ShardRouter::new(spec_s, legs, false, false),
        Layer::Router,
        rec,
    );
    let mut client = ClientFilter::new(router, map, seed)?;
    client.set_share_cache(true);
    let (wal, wal_path) = if wal {
        let path = wal_path(scratch, tag);
        let _ = std::fs::remove_file(&path);
        let poly_len = Packer::new(client.ring()).radix_len();
        (Some(Wal::open(&path, poly_len)?), Some(path))
    } else {
        (None, None)
    };
    let mut db = Db {
        client,
        wal,
        wal_path,
        hosts: Vec::new(),
        stored_bytes,
        input_bytes: inp.base_xml.len() as u64,
        elements,
        encode_time,
        live: VecDeque::new(),
        next_doc: 0,
    };
    db.preload(spec, inp)?;
    Ok(db)
}

/// Builds the fleet: encode and split, start one mux host per party
/// (`workers = 1`), connect, and put the fixed RTT in front of the router.
/// With a recorder the router is assembled leg by leg (`FleetLeg::up`,
/// `FleetTransport::new`) so that each party leg can be traced; without
/// one the client connects through `connect_fleet_mux`.
pub fn fleet_db<T: Stack>(
    spec: &Spec,
    inp: &Inputs,
    connect: impl FnOnce(&[String], &MapFile, &Seed) -> Result<T, CoreError>,
) -> Result<Db<T>, CoreError> {
    let Plane::FleetMux { shards } = spec.plane else {
        unreachable!("fleet_db on a local workload")
    };
    let (map, seed) = secrets();
    let out = encode_document_fleet(
        &inp.base_xml,
        &map,
        &seed,
        FleetSpec::new(FLEET_PARTIES, FLEET_THRESHOLD)?,
    )?;
    let (elements, encode_time) = (out.stats.elements as u64, out.stats.elapsed);
    let mut stored_bytes = 0;
    let mut hosts = Vec::new();
    for party in out.parties {
        stored_bytes += table_bytes(&party.data) + table_bytes(&party.mac);
        let server = party_server(party.data, party.mac, &out.ring, shards)?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| CoreError::Transport(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CoreError::Transport(format!("local_addr: {e}")))?;
        hosts.push((
            addr,
            std::thread::spawn(move || serve_tcp_mux(listener, server, 1)),
        ));
    }
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();
    let mut db = Db {
        client: ClientFilter::new(connect(&addrs, &map, &seed)?, map, seed)?,
        wal: None,
        wal_path: None,
        hosts,
        stored_bytes,
        input_bytes: inp.base_xml.len() as u64,
        elements,
        encode_time,
        live: VecDeque::new(),
        next_doc: 0,
    };
    db.client.set_share_cache(true);
    db.preload(spec, inp)?;
    Ok(db)
}

fn rtt(seed: u64) -> ChaosConfig {
    ChaosConfig::fixed_delay(seed, FLEET_RTT)
}

/// `connect_fleet_mux`, behind the fixed RTT.
pub fn connect_public(
    addrs: &[String],
    map: &MapFile,
    seed: &Seed,
) -> Result<FleetStack, CoreError> {
    let router = connect_fleet_mux(addrs, FLEET_THRESHOLD, map, seed)?;
    Ok(Traced::new(
        ChaosTransport::new(router, rtt(1)),
        Layer::Router,
        None,
    ))
}

/// The router `connect_fleet_mux` builds, with every party leg traced.
pub fn connect_traced(
    rec: Arc<Recorder>,
) -> impl FnOnce(&[String], &MapFile, &Seed) -> Result<TracedFleetStack, CoreError> {
    move |addrs, map, seed| {
        let ring = RingCtx::new(map.p(), map.e())?;
        let packer = Packer::new(&ring);
        let alpha = fleet_mac_key(seed, &ring);
        let mut probe = TcpTransport::connect(addrs[0].as_str())?;
        let total = match probe.call(&Request::ShardCount)? {
            ssx_core::protocol::Response::Count(n) => n as u32,
            other => {
                return Err(CoreError::Transport(format!(
                    "unexpected shard-count response {other:?}"
                )))
            }
        };
        let pools = addrs
            .iter()
            .map(|a| MuxPool::connect(a.as_str(), total))
            .collect::<Result<Vec<_>, _>>()?;
        let sspec = ShardSpec::new(total / 2);
        let pipes = (0..sspec.shards())
            .map(|k| {
                let legs = pools
                    .iter()
                    .enumerate()
                    .map(|(j, pool)| {
                        FleetLeg::up(
                            j + 1,
                            Traced::new(pool.transport(k), Layer::Leg, Some(rec.clone())),
                        )
                    })
                    .collect();
                let mut pipe = FleetTransport::new(
                    legs,
                    FLEET_THRESHOLD,
                    sspec.shards(),
                    k,
                    ring.clone(),
                    packer.clone(),
                    alpha,
                    true,
                );
                pipe.set_split_seed(seed.clone());
                pipe
            })
            .collect();
        let router = ShardRouter::new(sspec, pipes, sspec.shards() > 1, true);
        Ok(Traced::new(
            ChaosTransport::new(router, rtt(1)),
            Layer::Router,
            Some(rec),
        ))
    }
}

/// What one op produced, for the latency classes and the check.
pub struct OpResult {
    pub ok: bool,
    /// The pool document a write inserted.
    pub doc: Option<usize>,
    pub rows_inserted: u64,
    pub closing_waves: u64,
    pub retries: u64,
    pub detail: Option<String>,
}

impl OpResult {
    fn checked(ok: bool, detail: impl FnOnce() -> String) -> OpResult {
        OpResult {
            ok,
            doc: None,
            rows_inserted: 0,
            closing_waves: 0,
            retries: 0,
            detail: (!ok).then(detail),
        }
    }
}

/// Time spent in the write stages outside the store waves, for the layer
/// metrics.
#[derive(Default, Clone, Copy)]
pub struct WriteCost {
    pub encode: Duration,
    pub wal_bytes: u64,
    pub input_bytes: u64,
}

impl<T: Stack> Db<T> {
    /// Loads the live documents. Like a bulk load, the live set is logged
    /// as one WAL record (one fsync); the writes of the timed passes log
    /// one record per insert and per delete.
    fn preload(&mut self, spec: &Spec, inp: &Inputs) -> Result<(), CoreError> {
        let mut wal = self.wal.take();
        let mut batch = Vec::new();
        for _ in 0..spec.live_docs {
            let (ok, _, _, rows) = self.insert_next(inp, None, &mut WriteCost::default())?;
            if !ok {
                return Err(CoreError::Transport("preload insert lost rows".into()));
            }
            batch.extend(rows);
        }
        if let Some(wal) = &mut wal {
            if !batch.is_empty() {
                wal.append_insert(&batch)?;
            }
        }
        self.wal = wal;
        Ok(())
    }

    /// Inserts the next pool document the way `EncryptedDb::insert_document`
    /// does: number it past the high-water mark, encode, apply, then log.
    /// Returns whether every row was applied, the rows applied, the pool
    /// index and the rows themselves.
    fn insert_next(
        &mut self,
        inp: &Inputs,
        rec: Option<&Recorder>,
        cost: &mut WriteCost,
    ) -> Result<(bool, u64, usize, Vec<Row>), CoreError> {
        let idx = self.next_doc % inp.pool.len();
        self.next_doc += 1;
        let xml = &inp.pool[idx];
        let offset = self.client.max_pre()?;
        let started = Instant::now();
        let out = span(rec, Layer::Encode, || {
            encode_document_at(xml, self.client.map(), self.client.seed(), offset)
        })?;
        cost.encode += started.elapsed();
        cost.input_bytes += xml.len() as u64;
        let rows = out.table.into_rows();
        let wire: Vec<(Loc, Vec<u8>)> = rows.iter().map(|r| (r.loc, r.poly.to_vec())).collect();
        let n = span(rec, Layer::Apply, || self.client.insert_rows(wire))?;
        if let Some(wal) = &mut self.wal {
            let before = wal.len_bytes();
            span(rec, Layer::Wal, || wal.append_insert(&rows))?;
            cost.wal_bytes += wal.len_bytes() - before;
        }
        self.live.push_back((idx, offset));
        Ok((n == rows.len() as u64, n, idx, rows))
    }

    /// Deletes the oldest live document the way
    /// `EncryptedDb::delete_document` does: root, descendants and their
    /// numeric-plane rows, then log.
    fn delete_oldest(
        &mut self,
        inp: &Inputs,
        rec: Option<&Recorder>,
        cost: &mut WriteCost,
    ) -> Result<bool, CoreError> {
        let (idx, offset) = self.live.pop_front().expect("a live document");
        let root_pre = offset + 1;
        let loc = self
            .client
            .loc_of(root_pre)?
            .ok_or_else(|| CoreError::Transport(format!("no node with pre={root_pre}")))?;
        let mut pres = vec![root_pre];
        pres.extend(self.client.descendants(loc)?.into_iter().map(|l| l.pre));
        let numeric: Vec<u32> = pres.iter().map(|&p| numeric_pre(p)).collect();
        pres.extend(numeric);
        let n = span(rec, Layer::Apply, || self.client.delete_pres(pres.clone()))?;
        if let Some(wal) = &mut self.wal {
            let before = wal.len_bytes();
            span(rec, Layer::Wal, || wal.append_remove(&pres))?;
            cost.wal_bytes += wal.len_bytes() - before;
        }
        Ok(n == inp.oracle.pool_rows[idx])
    }

    fn expected_pres(&self, inp: &Inputs, q: usize) -> Vec<u32> {
        let mut want = inp.oracle.base_q[q].clone();
        for &(idx, offset) in &self.live {
            want.extend(inp.oracle.pool_q[idx][q].iter().map(|p| p + offset));
        }
        want
    }

    fn expected_agg(&self, inp: &Inputs, a: usize) -> RefAggregate {
        let mut want = inp.oracle.base_a[a];
        for &(idx, _) in &self.live {
            let d = inp.oracle.pool_a[idx][a];
            want.count += d.count;
            want.contributing += d.contributing;
            want.sum += d.sum;
        }
        want
    }

    /// Runs one op and checks it against the oracle. Errors count as
    /// failed ops; nothing is retried here.
    pub fn run_op(
        &mut self,
        spec: &Spec,
        inp: &Inputs,
        op: Op,
        rec: Option<&Recorder>,
        cost: &mut WriteCost,
    ) -> OpResult {
        match self.try_op(spec, inp, op, rec, cost) {
            Ok(r) => r,
            Err(e) => OpResult::checked(false, || format!("{op:?}: {e}")),
        }
    }

    fn try_op(
        &mut self,
        spec: &Spec,
        inp: &Inputs,
        op: Op,
        rec: Option<&Recorder>,
        cost: &mut WriteCost,
    ) -> Result<OpResult, CoreError> {
        Ok(match op {
            Op::Query(q) => {
                let (_, kind, rule) = &spec.queries[q];
                let out = Engine::run(*kind, *rule, &inp.queries[q], &mut self.client)?;
                let got = out.pres();
                let want = self.expected_pres(inp, q);
                OpResult::checked(got == want, || {
                    format!(
                        "{}: {} results, oracle {}",
                        spec.queries[q].0,
                        got.len(),
                        want.len()
                    )
                })
            }
            Op::Agg(a) => {
                let s = &inp.aggs[a];
                let out = run_aggregate(
                    &mut self.client,
                    EngineKind::Advanced,
                    MatchRule::Equality,
                    s,
                )?;
                let o = self.expected_agg(inp, a);
                let want = match s.op {
                    AggOp::Count => (o.count, 0, 0),
                    AggOp::Sum | AggOp::Avg => (o.count, o.contributing, o.sum),
                };
                let got = (out.count, out.contributing, out.sum);
                let mut r = OpResult::checked(got == want, || {
                    format!("{:?} {:?}: {got:?}, oracle {want:?}", s.op, s.range)
                });
                r.closing_waves = out.closing_waves;
                r.retries = out.retries as u64;
                r
            }
            Op::Write => {
                let (inserted_ok, rows, doc, _) = self.insert_next(inp, rec, cost)?;
                let deleted_ok = self.delete_oldest(inp, rec, cost)?;
                let mut r = OpResult::checked(inserted_ok && deleted_ok, || {
                    format!("write: insert ok {inserted_ok}, delete ok {deleted_ok}")
                });
                r.rows_inserted = rows;
                r.doc = Some(doc);
                r
            }
        })
    }

    /// Stops the hosts (fleet) and removes the WAL; returns the counters of
    /// every server filter that ran in this process.
    pub fn shutdown(self) -> Result<ServerStats, CoreError> {
        let local = self.client.transport().server_stats();
        drop(self.client);
        drop(self.wal);
        if let Some(path) = self.wal_path {
            let _ = std::fs::remove_file(path);
        }
        let mut stats = Vec::new();
        for (addr, _) in &self.hosts {
            TcpTransport::connect(*addr)?.call(&Request::Shutdown)?;
        }
        for (_, handle) in self.hosts {
            let server = handle
                .join()
                .map_err(|_| CoreError::Transport("mux host panicked".into()))??;
            stats.extend(server.into_filters().into_iter().map(|f| f.stats()));
        }
        Ok(local.unwrap_or_else(|| sum_stats(stats.into_iter())))
    }
}
