//! TCP failure paths must surface as typed `CoreError`s on the client and
//! must not take servers down: truncated frames, absurd length prefixes,
//! mid-query disconnects — and, since PR 6, the fleet plane's faults: a
//! party dead at connect, a party dying mid-stream, and a byzantine party
//! serving bit-flipped shares (detected and *named*, never wrong results).

use ssxdb::core::protocol::{encode_request, encode_response, Request, Response};
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, encode_document_fleet, party_server, serve_tcp_mux, serve_tcp_mux_opts,
    CoreError, EncryptedDb, EngineKind, FleetSpec, MapFile, MatchRule, MuxHostOptions, MuxPool,
    PartyHealth, PartyStore, RemoteFleetDb, RemoteMuxFleetDb, ResilienceConfig, ShardRouter,
    ShardedServer, TcpTransport,
};
use ssxdb::poly::RingCtx;
use ssxdb::prg::Seed;
use ssxdb::store::{Row, Table};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn demo_server() -> ShardedServer {
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    ShardedServer::from_table(out.table, out.ring, 1).unwrap()
}

/// A fake server that accepts one connection, runs `script` on it, and
/// drops it.
fn fake_server(script: impl FnOnce(TcpStream) + Send + 'static) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        script(stream);
    });
    addr
}

#[test]
fn oversized_length_prefix_is_refused_not_allocated() {
    let addr = fake_server(|mut stream| {
        // Read the request frame, answer with a 4 GiB length prefix.
        let mut buf = [0u8; 256];
        use std::io::Read;
        let _ = stream.read(&mut buf);
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // Keep the socket open long enough for the client to read the prefix.
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    let mut t = TcpTransport::connect(addr).unwrap();
    match t.call(&Request::Count) {
        Err(CoreError::Transport(msg)) => assert!(msg.contains("refused"), "{msg}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn truncated_response_frame_errors() {
    let addr = fake_server(|mut stream| {
        let mut buf = [0u8; 256];
        use std::io::Read;
        let _ = stream.read(&mut buf);
        // Promise 100 bytes, deliver 3, hang up.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
    });
    let mut t = TcpTransport::connect(addr).unwrap();
    match t.call(&Request::Count) {
        Err(CoreError::Transport(msg)) => assert!(msg.contains("read"), "{msg}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn server_disconnect_mid_query_errors() {
    let addr = fake_server(drop);
    let mut t = TcpTransport::connect(addr).unwrap();
    // The server is gone: either the write fails or the read sees EOF —
    // both must be typed errors, never a panic.
    match t.call(&Request::Count) {
        Err(CoreError::Transport(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn malformed_client_frames_do_not_kill_a_single_shard_host() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, demo_server(), 0).unwrap());

    // A client that promises 50 bytes and delivers 5, then vanishes.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&50u32.to_le_bytes()).unwrap();
        bad.write_all(&[9, 9, 9, 9, 9]).unwrap();
    }
    // A client that sends an oversized prefix.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
    }
    // The server must still answer a well-behaved client.
    let mut good = TcpTransport::connect(addr).unwrap();
    match good.call(&Request::Count).unwrap() {
        ssxdb::core::protocol::Response::Count(3) => {}
        other => panic!("{other:?}"),
    }
    good.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// A server dying in the middle of a *batch* response — the frame is
/// promised, half the multi-slot payload arrives, the socket drops — must
/// surface as a typed transport error on `call_batch`, exactly like the
/// single-request disconnects above (which were the only shape tested
/// before PR 5).
#[test]
fn mid_batch_disconnect_errors_cleanly_on_the_client() {
    let addr = fake_server(|mut stream| {
        let mut buf = [0u8; 1024];
        use std::io::Read;
        let _ = stream.read(&mut buf);
        // Promise a 400-byte batch response, deliver a plausible prefix
        // (the batch tag and a slot count), vanish mid-frame.
        stream.write_all(&400u32.to_le_bytes()).unwrap();
        stream.write_all(&[9u8]).unwrap();
        stream.write_all(&3u32.to_le_bytes()).unwrap();
    });
    let mut t = TcpTransport::connect(addr).unwrap();
    let reqs = vec![Request::Count, Request::Root, Request::Count];
    match t.call_batch(&reqs) {
        Err(CoreError::Transport(msg)) => assert!(msg.contains("read"), "{msg}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

/// A complete frame that answers fewer slots than the batch asked for is a
/// *protocol* failure, not a silent truncation: every slot must be
/// accounted for or the whole batch errors.
#[test]
fn short_batch_response_is_an_error_not_a_truncation() {
    let addr = fake_server(|mut stream| {
        let mut buf = [0u8; 1024];
        use std::io::Read;
        let _ = stream.read(&mut buf);
        let payload = ssxdb::core::protocol::encode_response(&Response::Batch(vec![Response::Ok]));
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(&payload).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    let mut t = TcpTransport::connect(addr).unwrap();
    let reqs = vec![Request::Count, Request::Root, Request::Count];
    match t.call_batch(&reqs) {
        Err(CoreError::Transport(msg)) => {
            assert!(msg.contains("1 of 3"), "{msg}");
        }
        other => panic!("expected a slot-count error, got {other:?}"),
    }
}

/// A client vanishing halfway through a *batch* frame (length prefix says
/// the whole batch, half the bytes arrive, the connection drops) must only
/// end that connection — in the legacy framing AND on an upgraded mux
/// connection. Either way the partial frame sits in the host reader's
/// reassembly buffer when the socket dies.
#[test]
fn client_vanishing_mid_batch_leaves_both_hosts_serving() {
    let batch = encode_request(&Request::Batch(vec![
        Request::Count,
        Request::Children { pre: 1 },
        Request::EvalMany {
            pres: vec![1, 2, 3],
            point: 17,
        },
    ]));
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    // Legacy connection: full length prefix, half the batch, gone.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&(batch.len() as u32).to_le_bytes()).unwrap();
        bad.write_all(&batch[..batch.len() / 2]).unwrap();
    }
    // Upgraded connection: handshake, then a corr-framed batch cut in half.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        let hello = encode_request(&Request::Hello { version: 1 });
        bad.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
        bad.write_all(&hello).unwrap();
        let mut ack = [0u8; 64];
        use std::io::Read;
        let _ = bad.read(&mut ack);
        let mut framed = 42u64.to_le_bytes().to_vec();
        framed.extend_from_slice(&batch);
        bad.write_all(&(framed.len() as u32).to_le_bytes()).unwrap();
        bad.write_all(&framed[..framed.len() / 2]).unwrap();
    }

    // A well-behaved batched client is unaffected, in either framing.
    let mut router = ShardRouter::connect(addr, 2).unwrap();
    let resps = router
        .call_batch(&[Request::Count, Request::Children { pre: 1 }])
        .unwrap();
    assert!(matches!(resps[0], Response::Count(3)), "{resps:?}");
    let pool = MuxPool::connect(addr, 2).unwrap();
    let mut t = pool.transport(0);
    assert_eq!(t.call(&Request::Count).unwrap(), Response::Count(2));
    drop(router);
    let mut closer = TcpTransport::connect(addr).unwrap();
    closer.call(&Request::Shutdown).unwrap();
    drop(closer);
    handle.join().unwrap();
}

#[test]
fn shard_count_mismatch_is_refused_at_connect() {
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 4).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    // Too few shards would silently skip partitions; too many would route
    // to nonexistent ones. Both must be refused by the handshake.
    for wrong in [1u32, 2, 8] {
        match ShardRouter::connect(addr, wrong) {
            Err(CoreError::Transport(msg)) => {
                assert!(msg.contains("4 shard"), "{msg}");
            }
            Ok(_) => panic!("shard count {wrong} accepted against a 4-shard host"),
            Err(other) => panic!("{other:?}"),
        }
    }
    // The right count connects and works.
    let mut router = ShardRouter::connect(addr, 4).unwrap();
    match router.call(&Request::Count).unwrap() {
        ssxdb::core::protocol::Response::Count(3) => {}
        other => panic!("{other:?}"),
    }
    router.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_to_a_nonexistent_shard_does_not_stop_the_host() {
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    // A raw mis-addressed Shutdown gets an error and must NOT stop the host.
    let mut raw = TcpTransport::connect(addr).unwrap();
    match raw
        .call(&Request::ToShard {
            shard: 99,
            req: Box::new(Request::Shutdown),
        })
        .unwrap()
    {
        ssxdb::core::protocol::Response::Err(msg) => assert!(msg.contains("no shard"), "{msg}"),
        other => panic!("{other:?}"),
    }
    // Still serving.
    let mut router = ShardRouter::connect(addr, 2).unwrap();
    match router.call(&Request::Count).unwrap() {
        ssxdb::core::protocol::Response::Count(3) => {}
        other => panic!("{other:?}"),
    }
    drop(raw);
    router.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

// ---- fleet fault injection --------------------------------------------------

const FLEET_XML: &str = "<site><a><b/><b/></a><c><a><b/></a></c></site>";

fn fleet_secrets() -> (MapFile, Seed) {
    let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
    (map, Seed::from_test_key(21))
}

/// Hosts one party's 2·S-filter server on an ephemeral port.
fn spawn_party(
    party: PartyStore,
    ring: &RingCtx,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ShardedServer>) {
    let server = party_server(party.data, party.mac, ring, 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());
    (addr, handle)
}

/// An address nobody listens on (bound, resolved, released).
fn dead_addr() -> std::net::SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

fn stop_host(addr: std::net::SocketAddr) {
    let mut closer = TcpTransport::connect(addr).unwrap();
    closer.call(&Request::Shutdown).unwrap();
}

/// One of n parties is dead before the client even connects: `connect_fleet`
/// tolerates it down to the threshold, and every result matches the
/// single-party plane exactly.
#[test]
fn fleet_tolerates_a_party_dead_at_connect() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let mut parties = fleet.parties.into_iter();
    let (a1, h1) = spawn_party(parties.next().unwrap(), &ring);
    let _party2_never_started = parties.next().unwrap();
    let (a3, h3) = spawn_party(parties.next().unwrap(), &ring);
    let addrs = vec![a1.to_string(), dead_addr().to_string(), a3.to_string()];

    let expected = EncryptedDb::encode(FLEET_XML, map.clone(), seed.clone())
        .unwrap()
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;

    let mut db = RemoteFleetDb::connect_fleet(&addrs, 2, map, seed).unwrap();
    let out = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert_eq!(out.result, expected);

    drop(db);
    stop_host(a1);
    stop_host(a3);
    h1.join().unwrap();
    h3.join().unwrap();
}

/// A party dying *mid-stream* — its host winds down between two queries on
/// a live fleet connection — degrades the fleet to the surviving quorum:
/// the next wave retires the dead leg and the results never change.
#[test]
fn fleet_party_dying_mid_stream_degrades_without_corruption() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    // Mux hosts: winding one down closes its sockets even while clients
    // hold connections, which is exactly the abrupt-death shape we want.
    let hosts: Vec<_> = fleet
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    let expected = EncryptedDb::encode(FLEET_XML, map.clone(), seed.clone())
        .unwrap()
        .query("//a/b", EngineKind::Advanced, MatchRule::Equality)
        .unwrap()
        .result;

    let mut db = RemoteMuxFleetDb::connect_fleet_mux(&addrs, 2, map, seed).unwrap();
    let out = db
        .query("//a/b", EngineKind::Advanced, MatchRule::Equality)
        .unwrap();
    assert_eq!(out.result, expected);

    // Kill party 2's host under the live connection.
    stop_host(hosts[1].0);

    // The same fleet connection keeps answering, bit-identically.
    for _ in 0..2 {
        let out = db
            .query("//a/b", EngineKind::Advanced, MatchRule::Equality)
            .unwrap();
        assert_eq!(
            out.result, expected,
            "results must survive a mid-stream death"
        );
    }

    drop(db);
    stop_host(hosts[0].0);
    stop_host(hosts[2].0);
    for (i, (_, h)) in hosts.into_iter().enumerate() {
        h.join()
            .unwrap_or_else(|_| panic!("party {} host panicked", i + 1));
    }
}

/// A byzantine party serving bit-flipped shares over TCP: the MAC check
/// catches it, the error *names the party*, and the query never returns
/// wrong results. The fleet then quarantines the liar — the very next
/// query on the same connection succeeds on the honest quorum.
#[test]
fn fleet_byzantine_shares_over_tcp_are_detected_and_named() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let mut fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    // Flip one bit in every polynomial of party 2's data plane.
    let clean = std::mem::replace(&mut fleet.parties[1].data, Table::new(1));
    let mut corrupted = Table::new(clean.poly_len());
    for row in clean.into_rows() {
        let mut poly = row.poly.into_vec();
        poly[0] ^= 0x01;
        corrupted
            .insert(Row {
                loc: row.loc,
                poly: poly.into_boxed_slice(),
            })
            .unwrap();
    }
    fleet.parties[1].data = corrupted;

    let hosts: Vec<_> = fleet
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    let expected = EncryptedDb::encode(FLEET_XML, map.clone(), seed.clone())
        .unwrap()
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;

    let mut db = RemoteFleetDb::connect_fleet(&addrs, 2, map.clone(), seed.clone()).unwrap();
    let err = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap_err();
    assert!(matches!(err, CoreError::Corrupt(_)), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("integrity") && msg.contains("party 2"),
        "expected an integrity error naming party 2, got: {msg}"
    );

    // Quarantined: the honest quorum answers the retry correctly.
    let out = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert_eq!(
        out.result, expected,
        "post-quarantine results must be exact"
    );

    drop(db);
    for (a, _) in &hosts {
        stop_host(*a);
    }
    for (_, h) in hosts {
        h.join().unwrap();
    }
}

#[test]
fn malformed_frames_only_drop_their_connection_on_sharded_host() {
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 2).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    let mut router = ShardRouter::connect(addr, 2).unwrap();
    // Poison a separate connection mid-stream.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&33u32.to_le_bytes()).unwrap();
        bad.write_all(&[7; 4]).unwrap();
    }
    // The router's connections keep working.
    match router.call(&Request::Count).unwrap() {
        ssxdb::core::protocol::Response::Count(3) => {}
        other => panic!("{other:?}"),
    }
    router.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

// ---- resilience: deadlines and write stalls ---------------------------------

fn read_frame_raw(s: &mut TcpStream) -> Option<Vec<u8>> {
    use std::io::Read;
    let mut len = [0u8; 4];
    s.read_exact(&mut len).ok()?;
    let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut buf).ok()?;
    Some(buf)
}

/// A slow-loris party: every connection gets its first frame answered (the
/// `ShardCount` probe, reported as the fleet layout `Count(2)`), after
/// which the socket swallows frames forever without responding.
fn slow_loris_party() -> (std::net::SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            let Ok(mut s) = stream else { return };
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                use std::io::Read;
                if read_frame_raw(&mut s).is_none() {
                    return;
                }
                let payload = encode_response(&Response::Count(2));
                let _ = s.write_all(&(payload.len() as u32).to_le_bytes());
                let _ = s.write_all(&payload);
                // Now go silent: read everything, answer nothing.
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {
                            if flag.load(Ordering::SeqCst) {
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    (addr, stop)
}

/// A slow-loris party — answers the connect probe, then never responds to
/// another frame. With a per-call deadline the wave times that leg out,
/// completes bit-identically from the two honest parties, and the fault on
/// record names the party, its address, and the exceeded deadline.
#[test]
fn fleet_slow_loris_party_is_timed_out_not_waited_for() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let mut parties = fleet.parties.into_iter();
    let (a1, h1) = spawn_party(parties.next().unwrap(), &ring);
    let _party2_shares_stay_offline = parties.next().unwrap();
    let (a3, h3) = spawn_party(parties.next().unwrap(), &ring);
    let (loris, stop) = slow_loris_party();
    let addrs = vec![a1.to_string(), loris.to_string(), a3.to_string()];

    let expected = EncryptedDb::encode(FLEET_XML, map.clone(), seed.clone())
        .unwrap()
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;

    let mut db = RemoteFleetDb::connect_fleet(&addrs, 2, map, seed).unwrap();
    db.set_resilience(ResilienceConfig {
        deadline: Some(Duration::from_millis(200)),
        retries: 0,
        ..Default::default()
    });
    let t0 = std::time::Instant::now();
    let out = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert_eq!(
        out.result, expected,
        "the honest quorum must answer exactly"
    );
    // Timeouts are bounded: the hung leg costs at most a few deadlines
    // before quarantine, never a multi-second wait per wave.
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "query stalled on the slow-loris party: {:?}",
        t0.elapsed()
    );
    let status = db.party_status();
    let p2 = &status[1];
    assert_eq!(p2.addr, loris.to_string(), "fault must carry the address");
    assert_ne!(p2.health, PartyHealth::Live);
    let fault = p2
        .fault
        .clone()
        .expect("the hung party must have a fault on record");
    assert!(
        fault.contains("deadline exceeded"),
        "fault must name the deadline: {fault}"
    );

    drop(db);
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(loris);
    stop_host(a1);
    stop_host(a3);
    h1.join().unwrap();
    h3.join().unwrap();
}

/// The mux host's write-stall knob (`serve --write-stall-ms`): a client
/// that requests megabytes and never reads a byte is cut off after the
/// configured stall, freeing the (deliberately single) executor for
/// well-behaved clients long before the 5 s default would.
#[test]
fn mux_write_stall_knob_cuts_off_a_non_reading_client() {
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = MuxHostOptions {
        workers: 1,
        auto_target: None,
        write_stall: Duration::from_millis(150),
    };
    let handle = std::thread::spawn(move || serve_tcp_mux_opts(listener, server, opts).unwrap());

    // The stalled client: mux handshake, then ~40 MB of polynomial fetches
    // it will never read. Writes are best-effort — the host is expected to
    // kill this connection under us.
    let mut stalled = TcpStream::connect(addr).unwrap();
    let hello = encode_request(&Request::Hello { version: 1 });
    stalled
        .write_all(&(hello.len() as u32).to_le_bytes())
        .unwrap();
    stalled.write_all(&hello).unwrap();
    let mut ack = [0u8; 64];
    use std::io::Read;
    let _ = stalled.read(&mut ack);
    let req = encode_request(&Request::GetPolys {
        pres: vec![1; 40_000],
    });
    for corr in 0..2u64 {
        let mut framed = corr.to_le_bytes().to_vec();
        framed.extend_from_slice(&req);
        let _ = stalled.write_all(&(framed.len() as u32).to_le_bytes());
        let _ = stalled.write_all(&framed);
    }

    // The well-behaved client is served well under the 5 s default: the
    // stalled connection is poisoned after ~150 ms and the executor moves on.
    let t0 = std::time::Instant::now();
    let pool = MuxPool::connect(addr, 1).unwrap();
    let mut good = pool.transport(0);
    assert_eq!(good.call(&Request::Count).unwrap(), Response::Count(3));
    assert!(
        t0.elapsed() < Duration::from_millis(2500),
        "good client waited {:?}; the write-stall knob did not take effect",
        t0.elapsed()
    );

    drop(good);
    drop(pool);
    drop(stalled);
    let mut closer = TcpTransport::connect(addr).unwrap();
    closer.call(&Request::Shutdown).unwrap();
    drop(closer);
    handle.join().unwrap();
}
