//! `vartol-serve` — the timing service daemon / REPL.
//!
//! TCP by default (newline-delimited JSON; see `crates/serve`), or
//! `--repl` to serve stdin/stdout with the same protocol:
//!
//! ```text
//! $ vartol-serve --addr 127.0.0.1:7425 --shards 4 --preload adder_8,c7552
//! $ printf '"Stats"\n' | vartol-serve --repl
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use vartol::liberty::Library;
use vartol::workspace::WorkspaceConfig;
use vartol_serve::{serve_lines, ServeConfig, ServeRequest, ServeResponse, Server, Service};

const USAGE: &str = "vartol-serve - sharded, cache-fronted timing service \
(newline-delimited JSON over TCP or stdin/stdout)

USAGE:
    vartol-serve [OPTIONS]

OPTIONS:
    --repl              serve stdin/stdout instead of TCP
    --addr HOST:PORT    TCP bind address [default: 127.0.0.1:7425]
    --shards N          worker shards (>= 1) [default: 2]
    --queue-depth N     per-shard admission queue depth [default: 64]
    --cache N           per-shard result-cache entries (0 disables) [default: 256]
    --threads N         per-shard pool width (0 = all CPUs) [default: 0]
    --mc-samples N      Monte-Carlo sample budget (>= 2) [default: 2000]
    --preload A,B,..    register presets/benchmarks before serving
    -h, --help          print this help";

struct Options {
    repl: bool,
    addr: String,
    preload: Vec<String>,
    config: ServeConfig,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            repl: false,
            addr: "127.0.0.1:7425".into(),
            preload: Vec::new(),
            config: ServeConfig::default(),
        }
    }
}

/// Parses the command line; `Err` carries the exit code (0 for
/// `--help`, 2 for usage errors, both after printing the usage text).
fn parse_args(args: &[String]) -> Result<Options, ExitCode> {
    let mut options = Options::default();
    let mut workspace = WorkspaceConfig::default();
    let mut iter = args.iter();
    let usage_error = |message: &str| {
        eprintln!("vartol-serve: {message}\n\n{USAGE}");
        ExitCode::from(2)
    };
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--repl" => options.repl = true,
            "--addr" => options.addr = value("--addr")?,
            "--shards" => {
                let n: usize = parse_number(&value("--shards")?, "--shards")?;
                if n == 0 {
                    return Err(usage_error("--shards must be at least 1"));
                }
                options.config.shards = n;
            }
            "--queue-depth" => {
                options.config.queue_depth =
                    parse_number(&value("--queue-depth")?, "--queue-depth")?;
            }
            "--cache" => {
                options.config.cache_capacity = parse_number(&value("--cache")?, "--cache")?;
            }
            "--threads" => {
                workspace.ssta.threads = parse_number(&value("--threads")?, "--threads")?;
                workspace.threads = workspace.ssta.threads;
            }
            "--mc-samples" => {
                let n: usize = parse_number(&value("--mc-samples")?, "--mc-samples")?;
                if n < 2 {
                    return Err(usage_error("--mc-samples must be at least 2"));
                }
                workspace.mc_samples = n;
            }
            "--preload" => {
                options.preload.extend(
                    value("--preload")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            other => return Err(usage_error(&format!("unknown argument `{other}`"))),
        }
    }
    options.config.workspace = workspace;
    Ok(options)
}

fn parse_number(text: &str, flag: &str) -> Result<usize, ExitCode> {
    text.parse().map_err(|_| {
        eprintln!("vartol-serve: {flag}: `{text}` is not a non-negative integer\n\n{USAGE}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(code) => return code,
    };

    let service = Service::new(Library::synthetic_90nm(), options.config);
    for name in &options.preload {
        let frames = service.call(ServeRequest::Register {
            circuit: name.clone(),
            preset: Some(name.clone()),
            bench: None,
        });
        match frames.first().map(|f| &f.payload) {
            Some(ServeResponse::Registered { gates, depth, .. }) => {
                eprintln!("vartol-serve: preloaded `{name}` ({gates} gates, depth {depth})");
            }
            Some(ServeResponse::Error { code, message }) => {
                eprintln!("vartol-serve: preload `{name}` failed ({code}): {message}");
                return ExitCode::FAILURE;
            }
            other => {
                eprintln!("vartol-serve: preload `{name}`: unexpected response {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let result = if options.repl {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve_lines(&service, stdin.lock(), stdout.lock()).map(|_| ())
    } else {
        let service = Arc::new(service);
        match Server::bind(options.addr.as_str(), Arc::clone(&service)) {
            Ok(server) => {
                match server.local_addr() {
                    Ok(addr) => eprintln!(
                        "vartol-serve: listening on {addr} ({} shards)",
                        service.shard_count()
                    ),
                    Err(e) => eprintln!("vartol-serve: listening ({e})"),
                }
                server.run()
            }
            Err(e) => Err(e),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vartol-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
