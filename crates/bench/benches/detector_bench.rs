//! Detector throughput over clean and censored captures — the per-test
//! cost that dominates the measurement campaign.
//!
//! The genuine page is shaped like the campaign's (`UrlEntry::body`, a
//! 4.6 KB HTML page), so the blockpage scan sees the bytes it sees in a
//! campaign; the censored cases are an injected RST and a fingerprinted
//! blockpage racing the genuine response.

use churnlab_censor::{
    ActiveCensor, CensorPolicy, Mechanism, MechanismProfile, TestContext, UrlCategory,
};
use churnlab_net::{
    Capture, FlowConfig, FlowOutcome, FlowSimulator, HopPath, HttpRequest, HttpResponse,
    OnPathObserver,
};
use churnlab_platform::detect::{self, BlockpageMatcher};
use churnlab_platform::UrlEntry;
use churnlab_topology::{Asn, Ipv4Prefix};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const DOMAIN: &str = "news-tribune7.org";

fn path() -> HopPath {
    let asns = [Asn(10), Asn(20), Asn(30), Asn(40)];
    let prefixes: HashMap<Asn, Vec<Ipv4Prefix>> = asns
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            (
                a,
                vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()],
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(3);
    let server = prefixes[&Asn(40)][0].nth_host(1);
    HopPath::expand(&asns, &prefixes, 7, server, (1, 3), &mut rng)
}

/// The genuine response for a campaign-sized page.
fn genuine() -> HttpResponse {
    let url = UrlEntry {
        id: 7,
        domain: DOMAIN.to_string(),
        path: "/".to_string(),
        category: UrlCategory::News,
        server_asn: Asn(40),
        server_ip: 0,
        body_len: 4600,
    };
    HttpResponse::ok(&url.body())
}

/// One HTTP fetch through `mechanism` (or no censor) and its control body.
fn captures(mechanism: Option<Mechanism>) -> (Capture, FlowOutcome, Vec<u8>) {
    let p = path();
    let body = genuine();
    let req = HttpRequest::get(DOMAIN, "/");
    let cfg = FlowConfig::default();
    let Some(mechanism) = mechanism else {
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &body, &mut []);
        return (cap, outcome, body.body);
    };
    let policy = CensorPolicy::steady(
        Asn(20),
        vec![mechanism],
        MechanismProfile {
            blockpage_id: 0,
            ..MechanismProfile::default()
        },
        [UrlCategory::News],
        365,
    );
    let compiled = policy.compile(&[(DOMAIN.into(), UrlCategory::News)]);
    let mut armed = ActiveCensor::new(
        &compiled,
        TestContext {
            day: 1,
            mimic_init_ttl: 60,
        },
    );
    let mut obs: Vec<(usize, &mut dyn OnPathObserver)> = vec![(1, &mut armed)];
    let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &body, &mut obs);
    (cap, outcome, body.body)
}

const CASES: [(&str, Option<Mechanism>); 3] = [
    ("clean", None),
    ("rst", Some(Mechanism::RstInjection)),
    ("blockpage", Some(Mechanism::Blockpage)),
];

fn bench_detectors(c: &mut Criterion) {
    let blockpages = BlockpageMatcher::new(&churnlab_censor::blockpage::fingerprint_list());
    let mut g = c.benchmark_group("detectors");
    g.sample_size(30);
    for (label, mechanism) in CASES {
        let (cap, outcome, control) = captures(mechanism);
        let flagged = detect::detect_block(&cap, &outcome, &blockpages, Some(&control));
        assert_eq!(flagged, label == "blockpage", "{label}: blockpage verdict");
        let dns = Capture::new();
        g.bench_function(format!("detect_all_{label}"), |b| {
            b.iter(|| {
                black_box(detect::detect_all(
                    &dns,
                    &cap,
                    &outcome,
                    &blockpages,
                    Some(&control),
                ))
            })
        });
        g.bench_function(format!("detect_block_{label}"), |b| {
            b.iter(|| {
                black_box(detect::detect_block(
                    &cap,
                    &outcome,
                    &blockpages,
                    Some(&control),
                ))
            })
        });
    }
    g.finish();
}

fn bench_flow_synthesis(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow");
    g.sample_size(30);
    for (label, mechanism) in CASES {
        g.bench_function(format!("http_get_{label}"), |b| {
            b.iter(|| black_box(captures(mechanism)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_detectors, bench_flow_synthesis);
criterion_main!(benches);
