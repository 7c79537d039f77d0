//! The per-test detectors on the campaign's hot path make no heap
//! allocation: `detect_block`, `detect_ttl` and `detect_reset` run on every
//! test, so an allocation crept back into them is a cost paid millions of
//! times a campaign. A counting global allocator (the technique of
//! `route_bench --max-steady-allocs 0`) checks it on a realistic clean
//! capture and on captures carrying a blockpage.

use churnlab_censor::{
    blockpage, ActiveCensor, CensorPolicy, Mechanism, MechanismProfile, TestContext, UrlCategory,
};
use churnlab_net::{
    Capture, FlowConfig, FlowOutcome, FlowSimulator, HopPath, HttpRequest, HttpResponse,
    OnPathObserver,
};
use churnlab_platform::detect::{self, BlockpageMatcher};
use churnlab_platform::UrlEntry;
use churnlab_topology::{Asn, Ipv4Prefix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

/// The system allocator behind a per-thread allocation counter (the test
/// harness runs other tests on other threads).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is unavailable while the thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure delegation to `System`; the counter is a const-initialised
// thread-local `Cell` that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const DOMAIN: &str = "news-gazette3.org";

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
    let client = prefixes[&Asn(10)][0].nth_host(1);
    HopPath::expand(&asns, &prefixes, client, server, (1, 2), &mut rng)
}

/// A campaign-shaped fetch: the URL corpus's genuine page, through a censor
/// using `mechanism` with blockpage template `template` (or no censor).
fn fetch(censor: Option<(Mechanism, usize)>) -> (Capture, FlowOutcome, HttpResponse) {
    let url = UrlEntry {
        id: 3,
        domain: DOMAIN.to_string(),
        path: "/".to_string(),
        category: UrlCategory::News,
        server_asn: Asn(40),
        server_ip: 0,
        body_len: 4600,
    };
    let genuine = HttpResponse::ok(&url.body());
    let req = HttpRequest::get(DOMAIN, "/");
    let cfg = FlowConfig::default();
    let compiled = censor.map(|(mechanism, template)| {
        let profile = MechanismProfile {
            blockpage_id: template,
            ..MechanismProfile::default()
        };
        CensorPolicy::steady(Asn(20), vec![mechanism], profile, [UrlCategory::News], 365)
            .compile(&[(DOMAIN.into(), UrlCategory::News)])
    });
    let mut armed = compiled.as_ref().map(|c| {
        ActiveCensor::new(
            c,
            TestContext {
                day: 5,
                mimic_init_ttl: 60,
            },
        )
    });
    let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = Vec::new();
    if let Some(a) = armed.as_mut() {
        observers.push((1, a));
    }
    let (cap, outcome) = FlowSimulator::http_get(&path(), &cfg, &req, &genuine, &mut observers);
    (cap, outcome, genuine)
}

#[test]
fn hot_path_detectors_do_not_allocate() {
    let blockpages = BlockpageMatcher::new(&blockpage::fingerprint_list());
    // Clean, fingerprinted blockpage (template 0), and a blockpage only
    // the length heuristic catches (template 4), which runs the `<html`
    // probe too.
    let cases = [
        ("clean", None, false),
        (
            "fingerprinted blockpage",
            Some((Mechanism::Blockpage, 0)),
            true,
        ),
        (
            "unfingerprinted blockpage",
            Some((Mechanism::Blockpage, 4)),
            true,
        ),
        ("rst injection", Some((Mechanism::RstInjection, 0)), false),
    ];
    for (label, censor, blocked) in cases {
        let (cap, outcome, genuine) = fetch(censor);
        let control = Some(genuine.body.as_slice());
        let (n, flagged) =
            allocations(|| detect::detect_block(&cap, &outcome, &blockpages, control));
        assert_eq!(flagged, blocked, "{label}: blockpage verdict");
        assert_eq!(n, 0, "{label}: detect_block allocated");
        let (n, _) = allocations(|| detect::detect_ttl(&cap));
        assert_eq!(n, 0, "{label}: detect_ttl allocated");
        let (n, reset) = allocations(|| detect::detect_reset(&cap));
        assert_eq!(reset, label == "rst injection", "{label}: reset verdict");
        assert_eq!(n, 0, "{label}: detect_reset allocated");
    }
    // The counter itself works: the lossy decoding the matcher replaced
    // allocates on a payload with an invalid byte.
    let (n, _) = allocations(|| String::from_utf8_lossy(b"blocked \xff").len());
    assert!(n > 0, "counting allocator saw nothing");
}
