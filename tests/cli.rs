//! Integration tests for the `ssxdb` command-line tool: the full
//! keygen → genmap → encode → info/query/serve/remote workflow.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ssxdb")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ssxdb_cli_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], cwd: &Path) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn ssxdb");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_ok(args: &[&str], cwd: &Path) -> String {
    let (ok, stdout, stderr) = run(args, cwd);
    assert!(
        ok,
        "ssxdb {args:?} failed:\nstdout: {stdout}\nstderr: {stderr}"
    );
    stdout
}

/// Builds the standard fixture: seed, doc, map, encoded db. Returns cwd.
fn fixture(name: &str) -> PathBuf {
    let dir = workdir(name);
    assert_ok(&["keygen", "seed.hex"], &dir);
    assert_ok(
        &["xmark", "--bytes", "6000", "--seed", "5", "doc.xml"],
        &dir,
    );
    assert_ok(
        &["genmap", "--p", "83", "--doc", "doc.xml", "map.properties"],
        &dir,
    );
    assert_ok(
        &[
            "encode",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "doc.xml",
            "db.ssxdb",
        ],
        &dir,
    );
    dir
}

#[test]
fn full_workflow_and_query() {
    let dir = fixture("workflow");
    let info = assert_ok(&["info", "db.ssxdb"], &dir);
    assert!(info.contains("rows (elements)"), "{info}");

    let out = assert_ok(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--engine",
            "advanced",
            "--rule",
            "equality",
            "--stats",
            "db.ssxdb",
            "/site/regions/europe/item",
        ],
        &dir,
    );
    assert!(out.contains("match(es)"), "{out}");
    assert!(out.contains("round trips"), "{out}");
    // The generator guarantees at least one europe item.
    let first = out.lines().next().unwrap();
    let n: usize = first
        .split(':')
        .nth(1)
        .and_then(|s| s.trim().split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(n >= 1, "expected matches, got {first}");
}

#[test]
fn engines_agree_via_cli() {
    let dir = fixture("engines");
    let base = [
        "query",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "--rule",
        "equality",
    ];
    let q = "//bidder/date";
    let simple = {
        let mut a = base.to_vec();
        a.extend(["--engine", "simple", "db.ssxdb", q]);
        assert_ok(&a, &dir)
    };
    let advanced = {
        let mut a = base.to_vec();
        a.extend(["--engine", "advanced", "db.ssxdb", q]);
        assert_ok(&a, &dir)
    };
    let nodes = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with("node pre="))
            .map(String::from)
            .collect()
    };
    assert_eq!(nodes(&simple), nodes(&advanced));
    assert!(!nodes(&simple).is_empty());
}

#[test]
fn trie_encode_and_contains_query() {
    let dir = workdir("trie");
    std::fs::write(
        dir.join("doc.xml"),
        "<people><person><name>Joan Johnson</name></person></people>",
    )
    .unwrap();
    assert_ok(&["keygen", "seed.hex"], &dir);
    assert_ok(
        &[
            "genmap",
            "--p",
            "131",
            "--doc",
            "doc.xml",
            "--trie-alphabet",
            "map.properties",
        ],
        &dir,
    );
    assert_ok(
        &[
            "encode",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--trie",
            "compressed",
            "doc.xml",
            "db.ssxdb",
        ],
        &dir,
    );
    let out = assert_ok(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "db.ssxdb",
            r#"//name[contains(text(), "Joan")]"#,
        ],
        &dir,
    );
    assert!(out.contains("1 match(es)"), "{out}");
    let miss = assert_ok(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "db.ssxdb",
            r#"//name[contains(text(), "zebra")]"#,
        ],
        &dir,
    );
    assert!(miss.contains("0 match(es)"), "{miss}");
}

#[test]
fn serve_and_remote_query() {
    let dir = fixture("serve");
    // Pick a free port by binding and releasing.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let mut server = Command::new(bin())
        .args([
            "serve", "--p", "83", "--e", "1", "--addr", &addr, "db.ssxdb",
        ])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Wait for the listener.
    let mut connected = false;
    for _ in 0..50 {
        if std::net::TcpStream::connect(&addr).is_ok() {
            connected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(connected, "server did not come up");

    let out = assert_ok(
        &[
            "remote",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--addr",
            &addr,
            "--stats",
            "/site/regions/europe/item",
        ],
        &dir,
    );
    assert!(out.contains("match(es)"), "{out}");

    // Shut the server down via the protocol.
    use ssxdb::core::protocol::Request;
    use ssxdb::core::{TcpTransport, Transport};
    let mut t = TcpTransport::connect(&addr).unwrap();
    t.call(&Request::Shutdown).unwrap();
    let status = server.wait().unwrap();
    assert!(status.success());
}

/// The multiplexed plane over the CLI: `serve` hosts the database behind
/// its fixed thread pool, `remote --mux` queries it through the
/// correlation envelope, and a legacy (non-mux) `remote` against the same
/// host still answers — identically. A plain `serve` and the older
/// `serve --mux` spelling start the same host.
#[test]
fn mux_serve_and_remote_via_cli() {
    let dir = fixture("mux_serve");
    for serve_flags in [&[][..], &["--mux"][..]] {
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let mut serve_args = vec![
            "serve", "--p", "83", "--e", "1", "--addr", &addr, "--shards", "2",
        ];
        serve_args.extend(serve_flags);
        serve_args.push("db.ssxdb");
        let mut server = Command::new(bin())
            .args(&serve_args)
            .current_dir(&dir)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut connected = false;
        for _ in 0..50 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                connected = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        assert!(connected, "server {serve_flags:?} did not come up");

        let common = [
            "remote",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--addr",
            &addr,
            "--shards",
            "2",
        ];
        let mut mux_args: Vec<&str> = common.to_vec();
        mux_args.extend([
            "--mux",
            "--speculate",
            "--stats",
            "/site/regions/europe/item",
        ]);
        let muxed = assert_ok(&mux_args, &dir);
        assert!(muxed.contains("match(es)"), "{muxed}");

        let mut legacy_args: Vec<&str> = common.to_vec();
        legacy_args.push("/site/regions/europe/item");
        let legacy = assert_ok(&legacy_args, &dir);
        let matches = |s: &String| {
            s.lines()
                .find(|l| l.contains("match(es)"))
                .map(str::to_string)
        };
        assert_eq!(
            matches(&muxed),
            matches(&legacy),
            "serve {serve_flags:?}: mux and legacy clients must agree"
        );

        use ssxdb::core::protocol::Request;
        use ssxdb::core::{TcpTransport, Transport};
        let mut t = TcpTransport::connect(&addr).unwrap();
        t.call(&Request::Shutdown).unwrap();
        let status = server.wait().unwrap();
        assert!(status.success());
    }
}

/// The online re-sharding workflow over the CLI: a sharded host comes up
/// with S = 2, `ssxdb reshard` repartitions it to 3 while it runs, and a
/// speculative `remote` client under the new count gets the same answer.
#[test]
fn reshard_and_speculative_remote_via_cli() {
    let dir = fixture("reshard");
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let mut server = Command::new(bin())
        .args([
            "serve", "--p", "83", "--e", "1", "--addr", &addr, "--shards", "2", "db.ssxdb",
        ])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut connected = false;
    for _ in 0..50 {
        if std::net::TcpStream::connect(&addr).is_ok() {
            connected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(connected, "server did not come up");

    let before = assert_ok(
        &[
            "remote",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--addr",
            &addr,
            "--shards",
            "2",
            "/site/regions/europe/item",
        ],
        &dir,
    );

    let out = assert_ok(&["reshard", "--addr", &addr, "--shards", "3"], &dir);
    assert!(out.contains("3 shard(s)"), "{out}");

    // The old shard count is refused; the new one answers identically —
    // with speculation on.
    let (ok, _, err) = run(
        &[
            "remote",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--addr",
            &addr,
            "--shards",
            "2",
            "/site/regions/europe/item",
        ],
        &dir,
    );
    assert!(!ok, "stale shard count must be refused");
    assert!(err.contains("shard"), "{err}");
    let after = assert_ok(
        &[
            "remote",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--addr",
            &addr,
            "--shards",
            "3",
            "--speculate",
            "--stats",
            "/site/regions/europe/item",
        ],
        &dir,
    );
    let matches = |s: &String| {
        s.lines()
            .find(|l| l.contains("match(es)"))
            .map(str::to_string)
    };
    assert_eq!(matches(&before), matches(&after), "answers must survive");

    use ssxdb::core::protocol::Request;
    use ssxdb::core::{TcpTransport, Transport};
    let mut t = TcpTransport::connect(&addr).unwrap();
    t.call(&Request::Shutdown).unwrap();
    let status = server.wait().unwrap();
    assert!(status.success());
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = workdir("errors");
    // Unknown command.
    let (ok, _, err) = run(&["frobnicate"], &dir);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
    // Missing file.
    let (ok, _, err) = run(&["info", "nope.ssxdb"], &dir);
    assert!(!ok);
    assert!(err.contains("error"), "{err}");
    // Bad query on a real db.
    let dir = fixture("badquery");
    let (ok, _, err) = run(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "db.ssxdb",
            "site",
        ],
        &dir,
    );
    assert!(!ok);
    assert!(err.contains("error"), "{err}");
    // Wrong rule keyword.
    let (ok, _, err) = run(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--rule",
            "bogus",
            "db.ssxdb",
            "/site",
        ],
        &dir,
    );
    assert!(!ok);
    assert!(err.contains("unknown rule"), "{err}");
}

#[test]
fn help_prints_usage() {
    let dir = workdir("help");
    let out = assert_ok(&["help"], &dir);
    assert!(out.contains("keygen"));
    assert!(out.contains("serve"));
}
