//! Quickstart: open an analysis session, trace two versions of a tiny program,
//! difference them semantically, and print the resulting semantic diff.
//!
//! The [`rprism::Engine`] is the session object: traces come back as `PreparedTrace`
//! handles whose derived artifacts (interned event keys, the view web) are built once
//! and reused by every query — note the second diff below reuses everything the first
//! one built. The traces are then stored to disk and re-loaded: the same pair of
//! files feeds the CLI (`rprism diff old.rtr new.rtr`). Finally the same analysis
//! runs **remotely**: an `rprism-server` daemon on a loopback port stores the traces
//! content-addressed and serves the diff from its shared warm engine — what
//! `rprism serve` / `rprism remote` do from the shell.
//!
//! Run with `cargo run --example quickstart`.

use std::fs::File;

use rprism::format::write_trace_path;
use rprism::{Encoding, Engine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let old_src = r#"
        class Range extends Object { Int min; Int max; }
        class App extends Object {
            Range r;
            Int accepted;
            Unit setup() { this.r = new Range(32, 127); }
            Unit feed(Int c) {
                if ((c >= this.r.min) && (c <= this.r.max)) {
                    this.accepted = this.accepted + 1;
                }
            }
        }
        main {
            let app = new App(null, 0);
            app.setup();
            app.feed(20);
            app.feed(64);
            app.feed(200);
        }
    "#;
    // The "new version" ships an off-by-31 range.
    let new_src = old_src.replace("new Range(32, 127)", "new Range(1, 127)");

    let engine = Engine::new();
    let old = engine.trace_source(old_src, "v1")?;
    let new = engine.trace_source(&new_src, "v2")?;

    println!(
        "traced v1 ({} entries) and v2 ({} entries)",
        old.trace().len(),
        new.trace().len()
    );

    let diff = engine.diff(&old, &new)?;
    println!(
        "views-based diff: {} differences in {} sequences ({} compare ops)\n",
        diff.num_differences(),
        diff.num_sequences(),
        diff.cost.compare_ops
    );
    print!("{}", diff.render(old.trace(), new.trace(), 5));

    // A second query over the same handles is nearly free: the view webs and event keys
    // were built with the handles, and the first diff cached the pair's correlation.
    let again = engine.diff(&old, &new)?;
    println!(
        "\nre-diffed with cached artifacts: {} differences (correlation built {} time(s))",
        again.num_differences(),
        engine.correlation_builds()
    );

    // Traces are portable: store them in the compact binary encoding (or in JSONL
    // with `Encoding::Jsonl`), stream them back in with content sniffing, and get the
    // exact same analysis — `rprism diff old.rtr new.rtr` does this from the shell.
    let dir = std::env::temp_dir().join(format!("rprism-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(rprism::FormatError::Io)?;
    let old_path = dir.join("old.rtr");
    let new_path = dir.join("new.rtr");
    write_trace_path(old.trace(), &old_path, Encoding::Binary)?;
    write_trace_path(new.trace(), &new_path, Encoding::Binary)?;
    let reloaded = engine.diff(
        &engine.load_prepared_reader(File::open(&old_path)?)?,
        &engine.load_prepared_reader(File::open(&new_path)?)?,
    )?;
    println!(
        "stored to {} and re-diffed from disk: {} differences (identical: {})",
        dir.display(),
        reloaded.num_differences(),
        reloaded.num_differences() == diff.num_differences()
    );

    // The same analysis as a service: a trace-repository daemon holds the traces
    // content-addressed (re-uploads deduplicate) and serves diff/analyze requests
    // from one shared warm engine. On the shell this is `rprism serve --addr ...
    // --repo ...` plus `rprism remote put/diff/analyze/stats --addr ...`.
    use rprism_server::{Client, Server, ServerConfig};
    let repo = dir.join("repo");
    std::fs::create_dir_all(&repo).map_err(rprism::FormatError::Io)?;
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", &repo))?;
    let addr = server.local_addr()?.to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr, std::time::Duration::from_secs(10))?;
    let old_hash = client.put_path(&old_path)?.hash;
    let new_hash = client.put_path(&new_path)?.hash;
    let remote = client.diff(old_hash, new_hash, 5)?;
    println!(
        "remote diff through the daemon: {} differences (identical: {})",
        remote.num_differences,
        remote.num_differences as usize == diff.num_differences()
    );
    client.shutdown()?;
    daemon.join().expect("daemon thread")?;

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
