"""Ablations: write buffering (§5.2), parity kernel (Swift), stripe unit."""

from conftest import run_experiment


def test_write_buffering_ablation(benchmark, repro_scale):
    table = run_experiment(benchmark, "ablation-writebuf", repro_scale)
    buffered = table.cell("buffered", "bandwidth_mbps")
    unbuffered = table.cell("unbuffered", "bandwidth_mbps")
    # The Section 5.2 fix: buffering recovers bandwidth by eliminating
    # most partial-block read-before-write operations.
    assert buffered > 1.15 * unbuffered
    assert table.cell("unbuffered", "partial_block_reads") > \
        2 * table.cell("buffered", "partial_block_reads")


def test_parity_kernel_ablation(benchmark, repro_scale):
    table = run_experiment(benchmark, "ablation-parity", repro_scale)
    word = table.cell("word-at-a-time", "bandwidth_mbps")
    byte = table.cell("byte-at-a-time", "bandwidth_mbps")
    # The Swift/RAID lesson the paper repeats: byte-at-a-time parity
    # computation costs a large fraction of delivered write bandwidth.
    assert byte < 0.75 * word


def test_collective_io_ablation(benchmark, repro_scale):
    table = run_experiment(benchmark, "ablation-collective", repro_scale)
    for scheme in ("raid5", "hybrid"):
        coll = [r for r in table.rows if r[0] == "collective"
                and r[1] == scheme][0][2]
        indep = [r for r in table.rows if r[0] == "independent"
                 and r[1] == scheme][0][2]
        # Two-phase I/O is worth a large factor for tiny strided records.
        assert coll > 3 * indep


def test_stripe_unit_ablation(benchmark, repro_scale):
    table = run_experiment(benchmark, "ablation-stripe-unit", repro_scale)
    ratios = dict(zip(table.column("stripe_unit"),
                      table.column("hybrid_vs_raid1")))
    # Small stripe units keep Hybrid below RAID1 for FLASH; large ones
    # push it above (Table 2's 16K vs 64K contrast).
    assert ratios[8] < 1.0
    assert ratios[64] > 1.05


def test_recovery_extension(benchmark, repro_scale):
    table = run_experiment(benchmark, "ext-recovery", repro_scale or 0.25)
    for row in table.rows:
        (_mb, raid1_t, raid5_t, hybrid_t, degraded, normal) = row
        # The mirror copy comes from one server, whose CPU handles every
        # byte in turn; parity rebuild moves five times the bytes, but
        # from five survivors streaming in parallel (one coalesced read
        # per survivor and chunk), so it ends sooner -- never 5x sooner.
        assert raid1_t / 5 < raid5_t < 1.05 * raid1_t
        assert hybrid_t >= 0.95 * raid5_t
        # Degraded reads pay the reconstruction tax but stay available.
        assert normal < degraded < 20 * normal
    _mb, raid1_t, raid5_t = table.rows[-1][:3]
    assert raid5_t < 0.9 * raid1_t  # at volume the parallel survivors win
    times = table.column("hybrid_rebuild_s")
    assert times == sorted(times)


def test_scrub_interference_extension(benchmark, repro_scale):
    table = run_experiment(benchmark, "ext-scrub", repro_scale or 0.25)
    for row in table.rows:
        scheme, alone, with_scrub, slowdown, scrub_time = row
        # Scrubbing costs something but never cripples the foreground.
        assert 1.0 <= slowdown < 2.0
        assert scrub_time > 0
        del scheme, alone, with_scrub
