//! Standalone chaos loadgen: boot a loopback wire server, hammer it under
//! a seeded fault plan, print the ledger as JSON, and exit nonzero if
//! anything was lost or duplicated.
//!
//! ```text
//! loadgen [--requests N] [--seed S] [--chaos] [--drop-oldest]
//!         [--client-threads T] [--accept-threads A]
//!         [--engine-workers W] [--requests-per-connection R]
//! ```
//!
//! `--client-threads 1 --requests-per-connection 1` is the deterministic
//! fingerprint mode; raising either knob turns the client into a
//! saturator for wide engine pools.

use harvest_net::{run_loadgen, LoadgenConfig, WireConfig, WireServer};
use harvest_simkit::SocketFaultPlan;
use serde_json::json;
use std::process::ExitCode;

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: loadgen [--requests N] [--seed S] [--chaos] [--drop-oldest] \
             [--client-threads T] [--accept-threads A] [--engine-workers W] \
             [--requests-per-connection R]"
        );
        return ExitCode::SUCCESS;
    }
    let requests = parse_flag(&args, "--requests").unwrap_or(64);
    let seed = parse_flag(&args, "--seed").unwrap_or(2024);
    let client_threads = parse_flag(&args, "--client-threads").unwrap_or(8) as usize;
    let accept_threads = parse_flag(&args, "--accept-threads").unwrap_or(4) as usize;
    let engine_workers = parse_flag(&args, "--engine-workers").unwrap_or(2) as usize;
    let requests_per_connection = parse_flag(&args, "--requests-per-connection").unwrap_or(1);
    let chaos = args.iter().any(|a| a == "--chaos");
    let drop_oldest = args.iter().any(|a| a == "--drop-oldest");

    let plan = if chaos {
        SocketFaultPlan::new(seed)
            .with_resets(0.08)
            .with_truncations(0.08)
            .with_garbling(0.08)
            .with_stalls(0.06, 400)
            .with_short_chunks()
    } else {
        SocketFaultPlan::none()
    };

    let server = match WireServer::start(WireConfig {
        accept_threads,
        drop_oldest,
        engine_workers,
        ..WireConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("loadgen: failed to start wire server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run_loadgen(
        server.addr(),
        &LoadgenConfig {
            requests,
            client_threads,
            requests_per_connection,
            plan,
            ..LoadgenConfig::default()
        },
    );
    let drain = server.shutdown();

    let doc = json!({
        "requests": report.requests,
        "fates": json!({
            "clean": report.fates.clean,
            "reset": report.fates.reset,
            "truncate": report.fates.truncate,
            "garble": report.fates.garble,
            "stall": report.fates.stall,
        }),
        "sent": report.sent,
        "cut": report.cut,
        "responded": report.responded,
        "statuses": report.statuses.iter().map(|&(s, n)| json!([s, n])).collect::<Vec<_>>(),
        "classes": report.classes.iter().map(|&(c, n)| json!([c, n])).collect::<Vec<_>>(),
        "lost": report.lost,
        "dup": report.dup,
        "client_errors": report.client_errors,
        "fingerprint": format!("{:016x}", report.fingerprint),
        "latency_p50_ms": report.percentile_ms(50.0),
        "latency_p99_ms": report.percentile_ms(99.0),
        "server": json!({
            "accepted": drain.stats.accepted,
            "responded_ok": drain.stats.responded_ok,
            "responded_error": drain.stats.responded_error,
            "rejected": drain.stats.rejected,
            "shed": drain.stats.shed,
            "bad_requests": drain.stats.bad_requests,
            "incomplete": drain.stats.incomplete,
            "timeouts": drain.stats.timeouts,
            "conserved": drain.stats.conserved(),
            "threads_joined": drain.threads_joined,
        }),
        "conserved": report.conserved(),
    });
    match serde_json::to_string_pretty(&doc) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("loadgen: cannot render the report: {e}");
            return ExitCode::FAILURE;
        }
    }

    if report.conserved() && drain.stats.conserved() {
        ExitCode::SUCCESS
    } else {
        eprintln!("loadgen: conservation violated");
        ExitCode::FAILURE
    }
}
