//! Workspace-level property-based tests: invariants that must hold across
//! randomly generated topologies, address patterns and message schedules.

use proptest::prelude::*;
use tcc_firmware::machine::Platform;
use tcc_firmware::tcc_boot::boot;
use tcc_firmware::topology::{ClusterSpec, ClusterTopology, SupernodeSpec, GLOBAL_BASE};
use tcc_msglib::channel::{channel, CHANNEL_BYTES, CREDIT_BYTES};
use tcc_msglib::ring::SendMode;
use tcc_msglib::shm::ShmMemory;
use tcc_opteron::UarchParams;

const MB: u64 = 1 << 20;

/// Strategy over bootable cluster shapes (kept small: every case boots a
/// full platform).
fn arb_spec() -> impl Strategy<Value = ClusterSpec> {
    prop_oneof![
        (1usize..=4)
            .prop_map(|p| ClusterSpec::new(SupernodeSpec::new(p, MB), ClusterTopology::Pair)),
        (2usize..=5)
            .prop_map(|n| ClusterSpec::new(SupernodeSpec::new(1, MB), ClusterTopology::Chain(n))),
        ((1usize..=3), (1usize..=2)).prop_map(|(x, y)| ClusterSpec::new(
            SupernodeSpec::new(2, MB),
            ClusterTopology::Mesh { x, y }
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every topology boots, self-tests all pairs, and never leaks an
    /// interrupt broadcast over a TCC cable.
    #[test]
    fn every_topology_boots(spec in arb_spec()) {
        let mut platform = Platform::assemble(spec, UarchParams::shanghai());
        let report = boot(&mut platform);
        let n = spec.supernode_count();
        prop_assert_eq!(report.selftest_pairs, n * (n - 1));
    }

    /// After boot, every global address resolves consistently: a store
    /// from any node lands in the DRAM of exactly the node that owns the
    /// address, at the right offset.
    #[test]
    fn address_resolution_is_total_and_correct(
        spec in arb_spec(),
        addr_frac in 0.0f64..1.0,
        src_frac in 0.0f64..1.0,
    ) {
        let mut platform = Platform::assemble(spec, UarchParams::shanghai());
        boot(&mut platform);
        let total = spec.global_end() - GLOBAL_BASE;
        // Pick an aligned global address and a source node.
        let addr = GLOBAL_BASE + ((total as f64 * addr_frac) as u64 & !63).min(total - 64);
        let src = ((spec.total_processors() as f64 * src_frac) as usize)
            .min(spec.total_processors() - 1);
        // Expected owner from the layout.
        let rel = addr - GLOBAL_BASE;
        let sn = (rel / spec.supernode.slice_bytes()) as usize;
        let p = ((rel % spec.supernode.slice_bytes()) / spec.supernode.dram_per_node) as usize;
        let owner = spec.proc_index(sn, p);
        let offset = rel % spec.supernode.dram_per_node;

        let now = tcc_fabric::time::SimTime(1_000_000_000); // after boot traffic
        let (_, commits) = platform.store_and_propagate(src, now, addr, &[0x77u8; 8]);
        let hit = commits.iter().find(|c| c.offset == offset && c.node == owner);
        prop_assert!(
            hit.is_some(),
            "store from {} to {:#x} expected at node {} offset {:#x}, got {:?}",
            src, addr, owner, offset, commits
        );
        prop_assert_eq!(platform.nodes[owner].mem.peek(offset, 8), &[0x77u8; 8]);
    }

    /// The channel delivers any schedule of messages intact and in order
    /// (single-threaded schedule; the threaded case is covered by the shm
    /// stress tests).
    #[test]
    fn channel_delivers_any_schedule(
        sizes in proptest::collection::vec(0usize..20_000, 1..40),
        mode in prop_oneof![Just(SendMode::WeaklyOrdered), Just(SendMode::StrictlyOrdered)],
    ) {
        let data = ShmMemory::new(CHANNEL_BYTES as usize);
        let credits = ShmMemory::new(CREDIT_BYTES as usize);
        let (mut tx, mut rx) = channel(
            data.remote(0, CHANNEL_BYTES),
            credits.local(0, CREDIT_BYTES),
            data.local(0, CHANNEL_BYTES),
            credits.remote(0, CREDIT_BYTES),
            mode,
        );
        let mut pending: std::collections::VecDeque<Vec<u8>> = Default::default();
        for (i, &s) in sizes.iter().enumerate() {
            let msg: Vec<u8> = (0..s).map(|j| ((i * 31 + j) % 251) as u8).collect();
            // Drain when the channel would block (receiver keeps up).
            loop {
                match tx.try_send(&msg) {
                    Ok(()) => break,
                    Err(tcc_msglib::SendError::WouldBlock) => {
                        let got = rx.recv();
                        let want = pending.pop_front().expect("something in flight");
                        prop_assert_eq!(got, want);
                    }
                    Err(e) => prop_assert!(false, "send failed: {:?}", e),
                }
            }
            pending.push_back(msg);
        }
        while let Some(want) = pending.pop_front() {
            prop_assert_eq!(rx.recv(), want);
        }
        prop_assert_eq!(rx.try_recv(), None, "no phantom messages");
    }

    /// `store_burst` is exactly equivalent to the store()/sfence() loop it
    /// replaces: identical issue/retire times, identical commit stream,
    /// and a byte-identical destination memory image — on a fully booted
    /// platform with propagation, not just a bare node.
    #[test]
    fn store_burst_equals_store_loop_on_platform(
        len in 0usize..2048,
        strict in prop_oneof![Just(true), Just(false)],
        header in prop_oneof![Just(true), Just(false)],
    ) {
        use tcc_fabric::time::SimTime;
        use tcc_opteron::BurstPattern;

        let pattern = BurstPattern {
            cell_payload: 64,
            cell_stride: if header { 72 } else { 64 },
            header_bytes: if header { 8 } else { 0 },
            payload_fill: 0xD5,
            header_fill: 0xAD,
            fence_every: if strict { 1 } else { 0 },
            final_fence: !strict,
            wrap_bytes: 0,
        };

        let mut burst = tccluster::TcclusterBuilder::new().build_sim();
        let mut looped = tccluster::TcclusterBuilder::new().build_sim();
        burst.reset_timebase();
        looped.reset_timebase();
        let base = burst.spec().node_base(1, 0);

        // Burst side: one call, one propagation.
        let mut sink = tcc_opteron::ActionSink::new();
        let mut b_commits = Vec::new();
        let out = burst.platform.nodes[0]
            .store_burst(SimTime::ZERO, base, &pattern, len, 0..pattern.cells(len), &mut sink);
        burst.platform.propagate(0, &mut sink, &mut b_commits);

        // Loop side: the equivalent driver loop, propagating per store —
        // the shape every pre-batching caller had.
        let mut l_sink = tcc_opteron::ActionSink::new();
        let mut l_commits = Vec::new();
        let mut scratch = Vec::new();
        let mut drive = |node: &mut tcc_firmware::machine::Platform,
                         f: &mut dyn FnMut(&mut tcc_firmware::machine::Platform,
                                            &mut tcc_opteron::ActionSink)| {
            f(node, &mut l_sink);
            scratch.clear();
            node.propagate(0, &mut l_sink, &mut scratch);
            l_commits.extend(scratch.iter().copied());
        };
        let cells = len.div_ceil(64).max(1);
        let mut now = SimTime::ZERO;
        let mut retire = now;
        for c in 0..cells {
            let cell_base = base + (c as u64) * pattern.cell_stride;
            let chunk = 64.min(len - (c * 64).min(len));
            if chunk > 0 {
                drive(&mut looped.platform, &mut |p, s| {
                    let o = p.nodes[0].store(now, cell_base, &[0xD5u8; 64][..chunk], s);
                    now = o.issued;
                    retire = retire.max(o.retire);
                });
            }
            if pattern.header_bytes > 0 {
                drive(&mut looped.platform, &mut |p, s| {
                    let o = p.nodes[0].store(now, cell_base + 64, &[0xADu8; 8], s);
                    now = o.issued;
                    retire = retire.max(o.retire);
                });
            }
            if strict {
                drive(&mut looped.platform, &mut |p, s| {
                    let f = p.nodes[0].sfence(now, s);
                    now = f.retire;
                    retire = retire.max(f.retire);
                });
            }
        }
        if pattern.final_fence {
            drive(&mut looped.platform, &mut |p, s| {
                let f = p.nodes[0].sfence(now, s);
                retire = retire.max(f.retire);
            });
        }

        prop_assert_eq!(out.issued, now, "issue clocks diverge");
        prop_assert_eq!(out.retire, retire, "retire times diverge");
        prop_assert_eq!(&b_commits, &l_commits, "commit streams diverge");
        let (b_mem, l_mem) = (&burst.platform.nodes[1].mem, &looped.platform.nodes[1].mem);
        prop_assert_eq!(b_mem.capacity(), l_mem.capacity());
        // Every byte of both DRAMs, page by page (an unwritten page is zeros).
        prop_assert!(b_mem.contents_eq(l_mem), "destination memory images diverge");
    }

    /// A burst issued in windows at random cell boundaries, propagated
    /// after each window, equals the one-call burst propagated once: the
    /// same issue/retire times, the same commits in the same order at the
    /// same times, and byte-identical destination memory. Every case runs
    /// the four burst shapes the simulator issues. Empty windows are
    /// allowed and issue nothing.
    #[test]
    fn windowed_burst_equals_one_burst_on_platform(
        len_frac in 0.0f64..1.0,
        cuts in proptest::collection::vec(0.0f64..1.0, 1..6),
    ) {
        use tcc_fabric::time::SimTime;
        use tcc_opteron::{ActionSink, BurstPattern, MemType, StoreOutcome};

        let eager = BurstPattern {
            cell_payload: 64,
            cell_stride: 72,
            header_bytes: 8,
            payload_fill: 0xD5,
            header_fill: 0xAD,
            fence_every: 0,
            final_fence: true,
            wrap_bytes: 0,
        };
        let rendezvous = BurstPattern {
            cell_stride: 64,
            header_bytes: 0,
            payload_fill: 0xB6,
            final_fence: false,
            wrap_bytes: tcc_msglib::RDVZ_BYTES,
            ..eager
        };
        let rdvz = tcc_msglib::RDVZ_BYTES as usize;
        // (pattern, len range, map the remote slice UC on the sender)
        let shapes = [
            // Ring cells with headers and a tail-pushing fence.
            (eager, 0..8 << 10, false),
            // A rendezvous payload lapping its landing zone.
            (rendezvous, rdvz + 1..rdvz + (8 << 10), false),
            // Strictly ordered: a fence after every line.
            (BurstPattern { fence_every: 1, ..rendezvous }, 1..8 << 10, false),
            // The write-combining ablation: 8 B UC stores.
            (
                BurstPattern { cell_payload: 8, cell_stride: 8, wrap_bytes: 0, ..rendezvous },
                8..2 << 10,
                true,
            ),
        ];
        for (pattern, lens, uc) in shapes {
            let len = lens.start + ((lens.end - lens.start) as f64 * len_frac) as usize;
            let cells = pattern.cells(len);
            let mut bounds: Vec<usize> =
                cuts.iter().map(|f| ((cells + 1) as f64 * f) as usize).collect();
            bounds.extend([0, cells]);
            bounds.sort_unstable();

            let run = |bounds: &[usize]| {
                let mut sim = tccluster::TcclusterBuilder::new().build_sim();
                sim.reset_timebase();
                let dst = sim.spec().node_base(1, 0);
                let base = dst + 0x1000;
                if uc {
                    // Remap the remote slice UC on the sender, as the ablation does.
                    let slice = sim.spec().supernode.slice_bytes();
                    let mtrrs = &mut sim.platform.nodes[0].mtrrs;
                    mtrrs.clear();
                    mtrrs.program(dst, dst + slice, MemType::Uncacheable);
                }
                let mut sink = ActionSink::new();
                let mut commits = Vec::new();
                let mut out = StoreOutcome { issued: SimTime::ZERO, retire: SimTime::ZERO };
                for w in bounds.windows(2) {
                    let o = sim.platform.nodes[0]
                        .store_burst(out.issued, base, &pattern, len, w[0]..w[1], &mut sink);
                    sim.platform.propagate(0, &mut sink, &mut commits);
                    out = StoreOutcome { issued: o.issued, retire: out.retire.max(o.retire) };
                }
                (out, commits, sim)
            };
            let (one, one_commits, one_sim) = run(&[0, cells]);
            let (split, split_commits, split_sim) = run(&bounds);

            prop_assert_eq!(split.issued, one.issued, "issue clocks diverge");
            prop_assert_eq!(split.retire, one.retire, "retire times diverge");
            prop_assert!(!one_commits.is_empty());
            prop_assert_eq!(&split_commits, &one_commits, "commit streams diverge");
            prop_assert!(
                split_sim.platform.nodes[1].mem.contents_eq(&one_sim.platform.nodes[1].mem),
                "destination memory images diverge"
            );
        }
    }

    /// Latency is monotone in message size and bandwidth curves stay
    /// within physical bounds on the simulated prototype.
    #[test]
    fn sim_measurements_physically_bounded(size_pow in 6u32..12) {
        let mut sim = tccluster::TcclusterBuilder::new().build_sim();
        let size = 1usize << size_pow;
        let lat = sim.pingpong(0, 1, size, 10);
        let bigger = sim.pingpong(0, 1, size * 2, 10);
        prop_assert!(bigger > lat, "latency must grow with size");
        let bw = sim.stream_bandwidth(0, 1, size, SendMode::WeaklyOrdered, 5);
        // Nothing may exceed the absorption stage's 5.5 GB/s, and
        // everything should beat 100 MB/s.
        prop_assert!(bw < 5_800.0, "{} MB/s exceeds physics", bw);
        prop_assert!(bw > 100.0, "{} MB/s implausibly slow", bw);
    }
}
