//! Wire-protocol robustness and retry-path recovery, driven by
//! medvid-testkit: arbitrary bytes into the frame reader must yield typed
//! `io::Error`s (never a panic, never an allocation sized by a lying
//! prefix), and [`RetryingClient`] must ride out transient connection
//! failures exactly as scripted.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_index::{NodeId, VideoDatabase};
use medvid_obs::Recorder;
use medvid_serve::protocol::{read_frame, recv_message, send_message, write_frame};
use medvid_serve::{
    spawn, Client, ClientError, ErrorKind, QueryRequest, Request, Response, RetryPolicy,
    RetryingClient, ServerConfig, WireStrategy, MAX_FRAME_BYTES,
};
use medvid_testkit::{
    corrupt_bytes, forall, require, valid_query, Fault, FaultyStream, NoShrink, QuerySpec,
};
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn to_wire(spec: &QuerySpec) -> QueryRequest {
    QueryRequest {
        vector: spec.vector.clone(),
        event: spec.event,
        under: spec.node.map(NodeId),
        clearance: spec.clearance,
        limit: spec.limit,
        strategy: Some(if spec.flat {
            WireStrategy::Flat
        } else {
            WireStrategy::Hierarchical
        }),
        delay_ms: None,
        trace_id: None,
        trace: false,
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_frame_reader() {
    forall(
        "recv_message(arbitrary bytes) is Ok or a typed io::Error",
        |rng| {
            let len = rng.usize_in(0, 512);
            rng.bytes(len)
        },
        |bytes| {
            let mut cursor = Cursor::new(bytes.as_slice());
            // Any outcome but a panic is in-contract; an Ok means the
            // fuzzer accidentally built a valid frame of valid JSON.
            let _ = recv_message::<_, Request>(&mut cursor);
            Ok(())
        },
    );
}

#[test]
fn lying_length_prefix_is_rejected_or_starved_not_allocated() {
    forall(
        "a 4-byte prefix claiming more than the body errors cleanly",
        |rng| {
            let claimed = rng.u64_in(1, u32::MAX as u64) as u32;
            let body_len = rng.usize_in(0, 64);
            (claimed, rng.bytes(body_len))
        },
        |(claimed, body)| {
            if (*claimed as usize) <= body.len() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut bytes = claimed.to_be_bytes().to_vec();
            bytes.extend_from_slice(body);
            let mut cursor = Cursor::new(bytes.as_slice());
            let err = match read_frame(&mut cursor) {
                Err(e) => e,
                Ok(frame) => {
                    return Err(format!(
                        "read a {}-byte frame from a stream claiming {claimed}",
                        frame.len()
                    ))
                }
            };
            if *claimed > MAX_FRAME_BYTES {
                require!(
                    err.kind() == std::io::ErrorKind::InvalidData,
                    "oversized claim gave {err:?}, want InvalidData"
                );
            } else {
                require!(
                    err.kind() == std::io::ErrorKind::UnexpectedEof,
                    "truncated body gave {err:?}, want UnexpectedEof"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn frames_roundtrip_and_survive_corruption_typed() {
    forall(
        "write_frame -> read_frame is identity; corrupted frames never panic",
        |rng| {
            let len = rng.usize_in(0, 2048);
            let payload = rng.bytes(len);
            let fault_seed = rng.next_u64();
            (payload, fault_seed)
        },
        |(payload, fault_seed)| {
            let mut framed = Vec::new();
            write_frame(&mut framed, payload).map_err(|e| format!("write failed: {e}"))?;
            let mut cursor = Cursor::new(framed.as_slice());
            let back = read_frame(&mut cursor).map_err(|e| format!("read failed: {e}"))?;
            require!(
                &back == payload,
                "roundtrip changed {} bytes",
                payload.len()
            );

            for fault in [
                Fault::Drop,
                Fault::TruncateAfter((*fault_seed % (framed.len() as u64 + 1)) as usize),
                Fault::Garbage {
                    len: 1 + (*fault_seed % 64) as usize,
                    seed: *fault_seed,
                },
            ] {
                let mauled = corrupt_bytes(&framed, fault);
                let mut cursor = Cursor::new(mauled.as_slice());
                // Ok only if the corruption happened to preserve a whole
                // frame; anything else must be a typed error, not a panic.
                if let Ok(frame) = read_frame(&mut cursor) {
                    require!(
                        frame.len() <= mauled.len(),
                        "frame larger than the stream it came from"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn query_requests_roundtrip_through_the_wire_codec() {
    forall(
        "send_message -> recv_message preserves QueryRequest",
        |rng| {
            let (dims, k) = (rng.usize_in(1, 32), rng.usize_in(1, 12));
            NoShrink(valid_query(rng, dims, k))
        },
        |spec| {
            let wire = to_wire(&spec.0);
            let mut buf = Vec::new();
            send_message(&mut buf, &Request::Query(wire.clone()))
                .map_err(|e| format!("encode failed: {e}"))?;
            let mut cursor = Cursor::new(buf.as_slice());
            let back: Request =
                recv_message(&mut cursor).map_err(|e| format!("decode failed: {e}"))?;
            let Request::Query(got) = back else {
                return Err("request changed variant on the wire".into());
            };
            require!(got.vector == wire.vector, "vector changed");
            require!(got.event == wire.event, "event changed");
            require!(got.under == wire.under, "node filter changed");
            require!(got.clearance == wire.clearance, "clearance changed");
            require!(got.limit == wire.limit, "limit changed");
            require!(got.strategy == wire.strategy, "strategy changed");
            Ok(())
        },
    );
}

#[test]
fn faulty_transport_surfaces_as_typed_errors() {
    forall(
        "Client over a FaultyStream errors or answers, never panics",
        |rng| {
            let spec = valid_query(rng, 8, 4);
            let fault = match rng.usize_in(0, 2) {
                0 => Fault::Drop,
                1 => Fault::TruncateAfter(rng.usize_in(0, 16)),
                _ => Fault::Garbage {
                    len: rng.usize_in(1, 128),
                    seed: rng.next_u64(),
                },
            };
            NoShrink((spec, fault))
        },
        |input| {
            let (spec, fault) = &input.0;
            // A transport that answers nothing useful: reads hit the fault
            // vocabulary, writes go to the void.
            let transport = FaultyStream::with_fault(Cursor::new(Vec::new()), Some(*fault));
            let mut client = Client::over(transport);
            match client.query(to_wire(spec)) {
                Ok(resp) => Err(format!("faulty transport produced {resp:?}")),
                Err(_) => Ok(()), // typed io::Error, as required
            }
        },
    );
}

/// Servers no longer queue ingest jobs (shots go through the fenced
/// `Request::Ingest`); an older client's ingest submission must get a
/// typed `BadRequest`, and the server must keep serving other clients.
#[test]
fn retired_ingest_job_submission_is_a_typed_bad_request() {
    let db = VideoDatabase::medical();
    let handle = spawn(db, ServerConfig::default(), Recorder::disabled()).unwrap();
    let timeout = Duration::from_secs(10);
    let mut old_client = TcpStream::connect(handle.addr()).unwrap();
    old_client.set_read_timeout(Some(timeout)).unwrap();
    let frame = br#"{"type":"submit_job","kind":{"kind":"ingest","shots":[{"video":3,"shot":4,"features":[0.5],"event":"Dialog","scene_node":7}]}}"#;
    write_frame(&mut old_client, frame).unwrap();
    match recv_message::<_, Response>(&mut old_client).expect("a reply, not a hang") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected a bad-request error, got {other:?}"),
    }
    let mut client = Client::connect(handle.addr(), timeout).unwrap();
    assert!(matches!(client.job_status(None), Ok(Response::Jobs { jobs }) if jobs.is_empty()));
    handle.shutdown();
    handle.join();
}

/// A listener that drops its first `flaky` connections outright, then
/// serves canned `Stats` responses — the recovery scenario the retry
/// client exists for.
fn flaky_server(flaky: usize, serve_requests: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for _ in 0..flaky {
            let conn = listener.accept().map(|(s, _)| s);
            drop(conn); // sever immediately: the client sees EOF mid-request
        }
        if let Ok((mut stream, _)) = listener.accept() {
            for _ in 0..serve_requests {
                let Ok(_req) = recv_message::<_, Request>(&mut stream) else {
                    return;
                };
                let resp = Response::Stats {
                    protocol: "medvid-serve/v1".into(),
                    epoch: 1,
                    records: 0,
                    cache: Default::default(),
                    executor: Default::default(),
                    store: None,
                };
                if send_message(&mut stream, &resp).is_err() {
                    return;
                }
            }
        }
    });
    addr
}

#[test]
fn retrying_client_recovers_after_scripted_connection_drops() {
    let flaky = 2;
    let addr = flaky_server(flaky, 1);
    let mut client = RetryingClient::new(
        addr,
        Duration::from_secs(5),
        RetryPolicy::no_delay(flaky as u32 + 2),
    );
    let resp = client.stats().expect("recovers once the fault clears");
    assert!(
        matches!(resp, Response::Stats { .. }),
        "expected stats, got {resp:?}"
    );
    assert!(
        client.last_attempts() > 1,
        "recovery must have taken more than one attempt, took {}",
        client.last_attempts()
    );
}

#[test]
fn retrying_client_exhausts_with_typed_error_when_nothing_listens() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("local addr")
        // Dropped here: connections to this port are refused from now on.
    };
    let mut client =
        RetryingClient::new(addr, Duration::from_millis(300), RetryPolicy::no_delay(3));
    let err = client.stats().expect_err("nothing is listening");
    let ClientError::RetriesExhausted { attempts, last } = err;
    assert_eq!(attempts, 3, "budget must be spent exactly");
    let _ = last; // the final transport error rides along for diagnosis
}
