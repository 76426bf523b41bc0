//! Decoder totality harness: the wire decoders never panic, and what
//! they accept round-trips.
//!
//! `wcds_service::protocol` promises total decoding — hostile bytes
//! come back as typed [`WireError`]s, never panics. This module
//! *demonstrates* it by structure-aware enumeration:
//!
//! * **seeds** — canonical encodings of every request and response
//!   variant;
//! * **truncations** — every prefix of every seed;
//! * **point mutations** — every byte of every seed overwritten with
//!   boundary values (`0x00`, `0x01`, `0x7f`, `0xff`, bit-flipped);
//! * **tag sweep** — all 256 discriminants in the tag position;
//! * **length splices** — 8-byte hostile lengths (`u64::MAX`,
//!   `1 << 40`) spliced after the header, where string/vec length
//!   prefixes live;
//! * **exhaustive small frames** — every frame of length ≤ 2 over all
//!   256 byte values, and length 3 over a protocol-relevant alphabet.
//!
//! Every candidate runs through both [`Request::decode`] and
//! [`Response::decode`] under `catch_unwind`; a panic fails the run
//! with the offending bytes. An accepted decode must **round-trip**:
//! re-encoding and re-decoding yields the same value (byte identity is
//! deliberately not required — e.g. any non-zero bool byte decodes to
//! `true` and re-encodes as `1`).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wcds_service::protocol::{
    Mutation, Request, Response, TopologyStats, WireError, PROTOCOL_VERSION,
};

/// Outcome of a totality run.
#[derive(Debug, Default)]
pub struct TotalityReport {
    /// Frame bodies pushed through both decoders.
    pub frames_tried: u64,
    /// Decodes that produced a message (and then round-tripped).
    pub accepted: u64,
    /// Decodes that produced a typed `WireError`.
    pub rejected: u64,
}

/// Every request variant worth encoding (exercises each body shape).
fn request_seeds() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Create { name: "net".into(), payload: "nodes 2\nedge 0 1\n".into() },
        Request::Export { name: "net".into() },
        Request::Construct { name: "net".into() },
        Request::Route { name: "net".into(), from: 3, to: 99 },
        Request::Broadcast { name: "net".into(), source: 0 },
        Request::Stats { name: "net".into() },
        Request::Mutate { name: "n".into(), mutation: Mutation::Join { x: 1.5, y: -2.25 } },
        Request::Mutate { name: "n".into(), mutation: Mutation::Leave { node: 7 } },
        Request::Mutate {
            name: "n".into(),
            mutation: Mutation::Move { node: 4, x: 0.0, y: 9.75 },
        },
        Request::Harden { name: "net".into(), k: 2, m: 2 },
        Request::MutateBatch {
            name: "n".into(),
            mutations: vec![
                Mutation::Move { node: 4, x: 0.5, y: 9.75 },
                Mutation::Join { x: -1.0, y: 2.0 },
                Mutation::Leave { node: 2 },
            ],
        },
        Request::MutateBatch { name: "n".into(), mutations: vec![] },
        Request::List,
        Request::Drop { name: "n".into() },
        Request::Shutdown,
    ]
}

/// Every response variant worth encoding.
fn response_seeds() -> Vec<Response> {
    vec![
        Response::Pong,
        Response::Created { nodes: 10, edges: 20, mobile: true },
        Response::Exported { payload: "nodes 1\n".into() },
        Response::Constructed { mis: 4, bridges: 2, spanner_edges: 31, epoch: 5 },
        Response::Routed { path: vec![0, 4, 2, 9] },
        Response::Routed { path: vec![] },
        Response::Broadcasted { forwarders: 6, informed: 50 },
        Response::StatsOk(TopologyStats {
            nodes: 100,
            edges: 400,
            epoch: 3,
            mobile: true,
            cached: false,
            mis: 12,
            bridges: 5,
            spanner_edges: 210,
            cache_hits: 40,
            cache_misses: 4,
            rebuilds: 4,
            hardened_k: 2,
            hardened_m: 2,
            achieved_k: 2,
            routes_ok: 31,
            routes_degraded: 3,
            routes_unreachable: 1,
            heals: 1,
            batched_mutations: 320,
            snapshot_reads: 77,
            pipeline_depth_max: 32,
            syscalls: 5120,
        }),
        Response::Mutated { epoch: 9, promoted: vec![3], demoted: vec![1, 2] },
        Response::BatchMutated {
            epoch: 320,
            applied: 16,
            promoted: 2,
            demoted: 1,
        },
        Response::Topologies { names: vec!["a".into(), "b".into()] },
        Response::Hardened {
            k: 2,
            m: 2,
            achieved_k: 2,
            dominators: 40,
            spanner_edges: 310,
            epoch: 6,
        },
        Response::Degraded { unreachable: 17 },
        Response::Dropped,
        Response::ShuttingDown,
        Response::Error {
            code: wcds_service::protocol::ErrorCode::Unroutable,
            message: "no route".into(),
        },
    ]
}

/// All candidate frame bodies derived from the seeds plus the
/// exhaustive small-frame sweep.
fn candidates() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = Vec::new();
    seeds.extend(request_seeds().iter().map(Request::encode));
    seeds.extend(response_seeds().iter().map(Response::encode));

    let mut out: Vec<Vec<u8>> = Vec::new();
    for seed in &seeds {
        // every truncation
        for cut in 0..seed.len() {
            out.push(seed[..cut].to_vec());
        }
        // every single-byte boundary overwrite
        for pos in 0..seed.len() {
            let original = seed[pos];
            for value in [0x00, 0x01, 0x7f, 0xff, original ^ 0x20] {
                if value != original {
                    let mut m = seed.clone();
                    m[pos] = value;
                    out.push(m);
                }
            }
        }
        // hostile 8-byte lengths spliced where length prefixes live
        for splice_at in 2..seed.len().min(12) {
            for hostile in [u64::MAX, 1u64 << 40] {
                let mut m = seed[..splice_at].to_vec();
                m.extend_from_slice(&hostile.to_le_bytes());
                m.extend_from_slice(seed.get(splice_at..).unwrap_or(&[]));
                out.push(m);
            }
        }
    }
    // full tag sweep on a well-formed header
    for tag in 0..=255u8 {
        out.push(vec![PROTOCOL_VERSION, tag]);
    }
    // exhaustive frames of length ≤ 2
    out.push(Vec::new());
    for a in 0..=255u8 {
        out.push(vec![a]);
        for b in 0..=255u8 {
            out.push(vec![a, b]);
        }
    }
    // length 3 over a protocol-relevant alphabet
    let alphabet = [0x00, 0x01, PROTOCOL_VERSION, 0x04, 0x08, 0x0a, 0x0b, 0x7f, 0xff];
    for a in alphabet {
        for b in alphabet {
            for c in alphabet {
                out.push(vec![a, b, c]);
            }
        }
    }
    out.extend(seeds);
    out
}

/// Verifies the seed corpus covers the **full** tag range of both
/// message enums, by probing rather than by a hand-kept list.
///
/// Each decoder is fed a bare `[version, tag]` header for all 256
/// tags. A decoder that answers anything but its own `UnknownTag`
/// recognises the tag — so some canonical seed must encode exactly
/// that tag, or a future variant was added without extending the
/// corpus (and the truncation/mutation/splice sweeps silently lost
/// coverage of its body shape).
///
/// # Errors
///
/// A recognised tag no seed encodes, or a seed tag the decoder
/// rejects; returns the `(request, response)` tag counts on success.
pub fn verify_seed_tag_coverage() -> Result<(usize, usize), String> {
    let req_seed_tags: BTreeSet<u8> =
        request_seeds().iter().filter_map(|r| r.encode().get(1).copied()).collect();
    let resp_seed_tags: BTreeSet<u8> =
        response_seeds().iter().filter_map(|r| r.encode().get(1).copied()).collect();
    let (mut req_known, mut resp_known) = (0usize, 0usize);
    for tag in 0..=255u8 {
        let probe = [PROTOCOL_VERSION, tag];
        let req_exists = !matches!(
            Request::decode(&probe),
            Err(WireError::UnknownTag { what: "request", .. })
        );
        let resp_exists = !matches!(
            Response::decode(&probe),
            Err(WireError::UnknownTag { what: "response", .. })
        );
        for (exists, seeded, what) in [
            (req_exists, req_seed_tags.contains(&tag), "request"),
            (resp_exists, resp_seed_tags.contains(&tag), "response"),
        ] {
            if exists && !seeded {
                return Err(format!(
                    "{what} tag {tag} is recognised by the decoder but no canonical \
                     seed encodes it — extend the seed corpus"
                ));
            }
            if !exists && seeded {
                return Err(format!(
                    "a seed encodes {what} tag {tag}, which the decoder rejects"
                ));
            }
        }
        req_known += usize::from(req_exists);
        resp_known += usize::from(resp_exists);
    }
    Ok((req_known, resp_known))
}

/// Pushes every candidate through both decoders.
///
/// # Errors
///
/// A panic inside a decoder, or an accepted frame that fails to
/// round-trip, rendered with the offending bytes.
pub fn run() -> Result<TotalityReport, String> {
    // the harness *expects* panics to be impossible; silence the
    // default hook so a failure doesn't spray backtraces before the
    // typed report
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = run_inner();
    std::panic::set_hook(prior);
    outcome
}

fn run_inner() -> Result<TotalityReport, String> {
    let mut report = TotalityReport::default();
    for body in candidates() {
        report.frames_tried += 1;
        check_request(&body, &mut report)?;
        check_response(&body, &mut report)?;
    }
    Ok(report)
}

fn check_request(body: &[u8], report: &mut TotalityReport) -> Result<(), String> {
    let decoded = catch_unwind(AssertUnwindSafe(|| Request::decode(body)))
        .map_err(|_| format!("Request::decode PANICKED on {} bytes: {body:02x?}", body.len()))?;
    match decoded {
        Ok(req) => {
            report.accepted += 1;
            let re = Request::decode(&req.encode()).map_err(|e| {
                format!("accepted request failed to re-decode ({e}): {body:02x?}")
            })?;
            if re != req && re.encode() != req.encode() {
                return Err(format!("request round-trip mismatch on {body:02x?}"));
            }
        }
        Err(_) => report.rejected += 1,
    }
    Ok(())
}

fn check_response(body: &[u8], report: &mut TotalityReport) -> Result<(), String> {
    let decoded = catch_unwind(AssertUnwindSafe(|| Response::decode(body)))
        .map_err(|_| format!("Response::decode PANICKED on {} bytes: {body:02x?}", body.len()))?;
    match decoded {
        Ok(resp) => {
            report.accepted += 1;
            let re = Response::decode(&resp.encode()).map_err(|e| {
                format!("accepted response failed to re-decode ({e}): {body:02x?}")
            })?;
            if !responses_equal(&re, &resp) {
                return Err(format!("response round-trip mismatch on {body:02x?}"));
            }
        }
        Err(_) => report.rejected += 1,
    }
    Ok(())
}

/// Value equality with an encoding fallback: a mutated frame may
/// decode to a NaN coordinate, where `PartialEq` is false but the bit
/// pattern re-encodes exactly — still a faithful round trip.
fn responses_equal(a: &Response, b: &Response) -> bool {
    a == b || a.encode() == b.encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totality_holds_over_the_full_candidate_set() {
        let report = match run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        // 1 + 256 + 65536 exhaustive small frames alone
        assert!(report.frames_tried > 65_000, "only {} frames", report.frames_tried);
        // the canonical seeds at least must decode
        assert!(report.accepted >= 26, "only {} accepted", report.accepted);
        assert!(report.rejected > report.accepted);
    }

    #[test]
    fn seeds_cover_every_recognised_tag() {
        let (req, resp) = match verify_seed_tag_coverage() {
            Ok(counts) => counts,
            Err(e) => panic!("{e}"),
        };
        // the protocol today: request tags 0..=12, response tags
        // 0..=14 — a new variant bumps these pins together with its
        // canonical seed
        assert_eq!(req, 13, "request tag count changed");
        assert_eq!(resp, 15, "response tag count changed");
    }

    #[test]
    fn candidate_set_contains_the_seeds_unmutated() {
        let set = candidates();
        for req in request_seeds() {
            assert!(set.contains(&req.encode()));
        }
        for resp in response_seeds() {
            assert!(set.contains(&resp.encode()));
        }
    }
}
