"""Phase-based scheduling of mixed-length jobs against one common deadline."""
import cProfile
import fractions
import hashlib
import json
import pstats
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_equal_deadline import (
    reference_equal_deadline_instance,
    reference_run_equal_deadline,
)
from schedlab.core import (ContractViolation, GridJobs, Instance, Job,
                           read_instance, write_instance)
from schedlab.equal_deadline import (
    classify,
    phase_bounds,
    phase_split,
    run_equal_deadline,
)
from schedlab.generators import equal_deadline_instance
from schedlab.oracle import volume_lower_bound

HALF = Fraction(1, 2)

#: sha256 of ``json.dumps(run_equal_deadline(inst).to_jsonable(),
#: sort_keys=True)`` for ``inst = equal_deadline_instance(kappa, jobs, seed)``,
#: keyed by ``(kappa, jobs, seed)``.  Any change to the generator or to the
#: runner's placements, pool maxima, bound or JSON encoding changes a digest.
GOLDEN_TRANSCRIPTS = {
    (1, 40, 0): "865e0cc0d2d82b5d3564533350ad95e5c9efce95d1397dc4ddd7c9032e43667d",
    (1, 40, 1): "c054e7dbc9c7ca0ba908974905121319fca5bfee68ec18a1dad61b88b68e8787",
    (1, 40, 2): "2486bb44208a69b832f2b9a4571458f064ef991ea4420581259665225735f530",
    (2, 40, 0): "39544b4fcbe0dc5e4348106cef76b41291d171658958f4453566716b4858aca8",
    (2, 40, 1): "28c87240db4043e018d7bcaf3798b46d477635b4a1ee6ddb6d6460a9e8ae29b4",
    (2, 40, 2): "0d73068163e7201f6d4a9879025b12aee4ee766d9f6487230d087026f9a93d7a",
    (3, 40, 0): "53562fb0a7e85061b1676b59278268c95b47602661d97c552355e2cafd4afc79",
    (3, 40, 1): "18c35bfe619a076270aa291e353ca2cabc7627fd34ede47019c4228b6a60937f",
    (3, 40, 2): "c135cc929e6dee72030e0d244d8f58795493f1f479afefe06f78419aeff12ec5",
    (4, 40, 0): "b9b850d710314912ab45f143e54fb2cb17baa12bae65c119dbec50d1dd8abbd7",
    (4, 40, 1): "b1db8ad7c993da3f75900393dffb8b9c8388fbc2700a1970b2ea7e48655aa701",
    (4, 40, 2): "0814f87ae5d98adb04c18c8f492f56be0c20a0be1d980ac1f540d981a426ef17",
    (5, 40, 0): "3192e5e228dc96a71a788ba177ea9d90cc98b3619b0d27311c6e394df577b3f5",
    (5, 40, 1): "a704f6ed77510f69a4295a567306efb6311af6e6fbb1a1483a81b1d2433bb19b",
    (5, 40, 2): "992a467eb6b7779c875314ba85f5ea3d29ef744838e358bb3f2e38237a0d806c",
    (6, 40, 0): "735de0a4360d94fe1b45a3ecc658058f3379fd1262ea86e5a09a9ace6dda1dfb",
    (6, 40, 1): "4625b0e1b3054290eddb21055fda7b33af83823e4ce18582dc6c1eb327b4946d",
    (6, 40, 2): "5c0c1b1efb5b17a3ce3739b8267b1802c23f9a8b62f9c5f9f7d7fc6fb80bebcc",
    (7, 40, 0): "172096b94d5a62aa271f9a474a424226d1e2cfb8cecf9c0ee10baa8e98b47a12",
    (7, 40, 1): "10a0027142a410c46e7410f0126c395cdd2dc6b62403714b3a7f8bf039b797cf",
    (7, 40, 2): "990224fc2f5b3702f7a57259445b971f0f69d5820406aee32bab07dbc12cf3af",
    (8, 40, 0): "abada779c8aa1340e652e194273519669c92cf75770d9bba93fd3943fd106333",
    (8, 40, 1): "e539b3ee3a1a12eb32efd5969a91615c7e97f62a1bdf5315789db9b9d59b2b83",
    (8, 40, 2): "68d197cddd41ff0c18b61db32b03e3842f1e0cb21b2dbac40c52378a15f2b117",
    (9, 40, 0): "b4abaa9962870ca89693da3cf100f7bf120bc5f14558236b0db4a6e3961e5d8b",
    (9, 40, 1): "9b59fcdee45717c3a52563dac8e9092fcafb7541684a6d3702c82804345fb5c7",
    (9, 40, 2): "17ac65418b8390642f4bcde95e91e542f7b2b7668c4ddd2127f5798cc2e888b9",
    (10, 40, 0): "5bf6a2736333faa14f19495663492c186a4f1ba11c320a290f01a81785440341",
    (10, 40, 1): "d37b1367dd5844f8c6ac2b83f72434db2f67fb4d7925a2752f0bf5b68211cfd4",
    (10, 40, 2): "a99226df27aa35f568aa285cac472e901215dcceb195235abdaa687e31da738f",
    (9, 1000, 0): "c55814894fdac2de950022ff149e2b55350729ced715b845968073a72ad0e0c0",
}


#: sha256 of ``write_instance(equal_deadline_instance(kappa, jobs, seed))``,
#: keyed by ``(kappa, jobs, seed)``, recorded from the ``Fraction`` generator
#: (``reference_equal_deadline_instance``).
GOLDEN_INSTANCES = {
    (1, 40, 0): "4e552e7124534879cf42264c2fbacb95350abdf64a888b08c4f72cc3873a357d",
    (1, 40, 1): "a1f7a2ded4ff6e838b7f76568b6bcf4b41d10b6ea603f42e738d6d7d5ac6000f",
    (1, 40, 2): "296354a10d4e901945f2ff109ee449847479d431e2eb9097a7754edf0bbfb4c0",
    (2, 40, 0): "d0bae8a0cdcac57316953f1d17fbf5ebcda015ea9a045b7f0e9feb54ef6120af",
    (2, 40, 1): "00f12eb1364bf7ca3f8e8812bc50cb9b61b5b083d50af53989c1eb86dfa9d558",
    (2, 40, 2): "0d1701d808b51d4faac739246a59878bb3f76dc2982b73439591d9adf17bbeda",
    (3, 40, 0): "687c57d47328e77baa47153c17ddfc2081ec37b294ea71fde70b94b6f09a128b",
    (3, 40, 1): "1c200a39dc6f9b6d44ee9a712a19df398a4d3000765ac33d9ea8a81a76c56bab",
    (3, 40, 2): "0a3a7df2c9d019e2256e3954e2f257e85bbb60e2e9eb1d2b6776827477780df2",
    (4, 40, 0): "9bba7ff84d23e14b34e951216daa2dbeb607dcea6ece09e0a812de8440fd1635",
    (4, 40, 1): "f7d38fb4c9c89bdcb2297b25fe7948e175a73093416b67b4f26fcc9c1307eec6",
    (4, 40, 2): "548dcf28fcc2392fab0e0b49390233161d670f7ec84a5e87708b8452bcf790d2",
    (5, 40, 0): "95ff8830277b7fce249fce77c9d737010faa81591d7e3eb658c2b00fad0c2556",
    (5, 40, 1): "2d9ed55dbdd465322094c71885ae1b33882648d3fef0a703357cfbb9956f9343",
    (5, 40, 2): "128df8f5b070aec104727e23975c5d8ec16811ea4dbb8b3f6a91ab725fe8b300",
    (6, 40, 0): "aac175c3fbf092aec46b687b655ff16041c0cf26ac3c58afe464ee588163495c",
    (6, 40, 1): "d8c634375f0c960957a5b3ba53e84ca0defda4fef8d9eb256834719e169bc122",
    (6, 40, 2): "0bd4a51d7c3bf91100e974427c0e0c2d2e5c05c764f9623fa2254ef78d4ae436",
    (7, 40, 0): "32fb28ec98db166f10662b1c1c699b309ef8de4b95fbb0e7b0fd0623c3814114",
    (7, 40, 1): "7215c150b8fb07ba4946c565b772a620dc6dc31414388dfd6d86e9d3e8af4ca1",
    (7, 40, 2): "42f54f7592c2db2af9daea3f4bab544959fad0795795ff6da58b9954d6c08b86",
    (8, 40, 0): "b8d1dc2292a3e15d992c960788672bb852cdc806e97c9c428fcf3cf4d0bef12c",
    (8, 40, 1): "fc5c8da88c4791bed6aabdb74605efe53b6e9fb1d39d2f997cc9a684966a2bed",
    (8, 40, 2): "7a821e1eaa57ad1bb24f87b45a2afca3a41b1c1c94fd697e5bb17ccd733c6a3b",
    (9, 40, 0): "f3557918230b5fc36dab159ac3d528196ea4f98559d2d75adc6cff55d1fbd970",
    (9, 40, 1): "6c307b9fef97bc55aca8170a4ed49cf12234104a1e1fc5cfff8c2ab4aa4c2869",
    (9, 40, 2): "752a4713789a549c523945343241d26b8be4f24e48eacc34dc85e712ef216386",
    (10, 40, 0): "29e7b45a24fa63190c764729a6727a1fc0ab69909339a04f3c5883c1dfe81e9c",
    (10, 40, 1): "6de71e54249c0b13bd99d79e429a5fea3e5bcc70aece8de11cf81d60212c7b9e",
    (10, 40, 2): "4a4bed4d4ac1f988cfc31d596165b33d8fd3d2c813bcd39df3e4e12a667d680b",
    (11, 40, 0): "6017b3e421611cc577aba07e4130b78addb45b6790a4fb8065642038f8f0a7f1",
    (11, 40, 1): "3370f9d722dee5ee64cfd14af7c21322865ac1ef393f1d3ace5747d1878c4a2d",
    (11, 40, 2): "cb27c3aace5365cbfee7e7bb5e0329b34f2749c6f4422208866d469199b59702",
    (12, 40, 0): "8e9318b29256a2547b6c20eb8574bc3846f72954f9c880e6bfc416ee8a2cbe7c",
    (12, 40, 1): "7b447e32acd95465a00bb5e17d85bafcc2292dcd5695bdc26da995853cc657fb",
    (12, 40, 2): "e2a2ea2edd7ccfc49ac9e345f09f0990bffe56ba6a6adf077db495399e31367f",
    (9, 1000, 0): "cabf569bc41d569a7d959f6a171f322c10d0158310b7f1173513c7e3e4663e81",
}


def ed_instance(*jobs):
    return Instance.of("equal-deadline", [Job(i, r, d, p=p)
                                          for i, (r, p, d) in enumerate(jobs)])


class TestPhaseBounds:
    def test_first_phase_of_three(self):
        assert phase_bounds(3, 1) == (0, 4, 4)

    def test_last_phase_of_three(self):
        assert phase_bounds(3, 3) == (6, 7, 1)

    def test_single_phase(self):
        assert phase_bounds(1, 1) == (0, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ContractViolation):
            phase_bounds(3, 0)
        with pytest.raises(ContractViolation):
            phase_bounds(3, 4)

    def test_phases_partition_horizon(self):
        for kappa in range(1, 8):
            phases = phase_split(kappa)
            assert phases[0].start == 0
            assert phases[-1].end == 2**kappa - 1
            for a, b in zip(phases, phases[1:]):
                assert a.end == b.start
            assert sum(p.length for p in phases) == 2**kappa - 1
            assert [p.length for p in phases] == [2**(kappa - i)
                                                  for i in range(1, kappa + 1)]


class TestClassify:
    def test_quarter_length_is_short(self):
        assert classify(1, 4) == "short"

    def test_above_quarter_is_long(self):
        assert classify(Fraction(3, 2), 4) == "long"

    def test_boundary_inclusive(self):
        assert classify(Fraction(1, 4), 1) == "short"


class TestSingleJobs:
    def test_empty_instance(self):
        tr = run_equal_deadline(ed_instance())
        assert tr.machines_used == 0
        assert tr.peak_concurrent == 0
        assert tr.ok

    def test_single_long_job(self):
        tr = run_equal_deadline(ed_instance((0, 3, 7)))
        assert tr.job_class == {0: "long"}
        assert tr.schedule.assignments == [(0, 0, 0)]
        assert tr.lb == 1
        assert tr.machines_used == 1
        assert tr.phases[0].m_long == 1
        assert tr.misses == [] and tr.ok

    def test_short_job_postponed_to_next_phase(self):
        tr = run_equal_deadline(ed_instance((1, HALF, 7)))
        assert tr.job_class == {0: "short"}
        (jid, machine, start), = tr.schedule.assignments
        assert start == 4
        assert tr.misses == []

    def test_final_phase_short_runs_immediately(self):
        tr = run_equal_deadline(ed_instance((Fraction(13, 2), Fraction(1, 5), 7)))
        assert tr.job_class == {0: "short"}
        (jid, machine, start), = tr.schedule.assignments
        assert start == Fraction(13, 2)
        assert start + Fraction(1, 5) <= 7
        assert tr.misses == []


class TestPhaseTransitions:
    def test_postponed_trio_shares_one_machine(self):
        tr = run_equal_deadline(
            ed_instance((1, HALF, 7), (1, HALF, 7), (1, HALF, 7)))
        starts = {jid: start for jid, machine, start in tr.schedule.assignments}
        machines = {machine for _, machine, _ in tr.schedule.assignments}
        assert machines == {0}
        assert sorted(starts.values()) == [4, Fraction(9, 2), 5]
        assert max(s + HALF for s in starts.values()) == Fraction(11, 2)
        assert tr.machines_used == 1
        assert tr.peak_concurrent == 1

    def test_running_long_with_big_remainder_stays_long_pool(self):
        tr = run_equal_deadline(ed_instance((3, Fraction(9, 4), 7)))
        assert tr.phases[1].m_long == 1
        assert tr.phases[1].m_short == 0
        assert tr.schedule.assignments == [(0, 0, 3)]

    def test_running_long_with_small_remainder_joins_short_pool(self):
        tr = run_equal_deadline(
            ed_instance((Fraction(13, 4), Fraction(9, 8), 7),
                        (1, HALF, 7), (1, HALF, 7)))
        assert tr.job_class == {0: "long", 1: "short", 2: "short"}
        assert tr.phases[1].m_long == 0
        assert tr.phases[1].m_short == 1
        starts = {jid: start for jid, machine, start in tr.schedule.assignments}
        assert starts[1] == Fraction(35, 8)
        assert starts[2] == Fraction(39, 8)
        assert {m for _, m, _ in tr.schedule.assignments} == {0}
        assert tr.peak_concurrent == 1

    def test_idle_machine_closed_and_id_reused(self):
        tr = run_equal_deadline(ed_instance((0, 3, 7), (1, HALF, 7)))
        assert tr.phases[1].closed_at_start == 1
        starts = {jid: (machine, start)
                  for jid, machine, start in tr.schedule.assignments}
        assert starts[1] == (0, 4)
        assert tr.machines_used == 1
        assert tr.peak_concurrent == 1

    def test_postponed_placed_in_descending_size(self):
        tr = run_equal_deadline(
            ed_instance((1, Fraction(1, 4), 7), (1, 1, 7), (1, HALF, 7)))
        starts = {jid: start for jid, machine, start in tr.schedule.assignments}
        assert starts[1] == 4
        assert starts[2] == 5
        assert starts[0] == Fraction(11, 2)


class TestCorpus:
    def test_random_corpus_feasible_and_bounded(self):
        for seed in range(60):
            kappa = 2 + seed % 3
            inst = equal_deadline_instance(kappa, 1 + seed % 14, seed=seed)
            tr = run_equal_deadline(inst)
            assert tr.misses == []
            assert tr.half_busy_ok
            for row in tr.bound_rows():
                assert row["m_short"] <= row["short_budget"]
                assert row["m_long"] <= row["long_budget"]
            assert tr.peak_concurrent <= 16 * tr.lb + 1
            assert tr.ok

    def test_all_assignments_inside_windows(self):
        for seed in range(25):
            inst = equal_deadline_instance(3, 12, seed=seed)
            tr = run_equal_deadline(inst)
            by_id = inst.jobs_by_id()
            for jid, machine, start in tr.schedule.assignments:
                j = by_id[jid]
                assert start >= j.r
                assert start + j.p <= j.d

    def test_short_jobs_drain_by_phase_end(self):
        for seed in range(25):
            inst = equal_deadline_instance(4, 14, seed=seed)
            tr = run_equal_deadline(inst)
            phases = phase_split(tr.kappa)
            for jid, machine, start in tr.schedule.assignments:
                if tr.job_class[jid] != "short":
                    continue
                phase = next(p for p in phases if p.start <= start < p.end)
                assert start + tr.lengths[jid] <= phase.end

    def test_no_two_jobs_overlap_on_a_machine(self):
        for seed in range(25):
            inst = equal_deadline_instance(3, 16, seed=seed)
            tr = run_equal_deadline(inst)
            by_machine = {}
            for jid, machine, start in tr.schedule.assignments:
                by_machine.setdefault(machine, []).append(
                    (start, start + tr.lengths[jid]))
            for spans in by_machine.values():
                spans.sort()
                for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                    assert e1 <= s2

    def test_lb_matches_oracle(self):
        for seed in range(10):
            inst = equal_deadline_instance(3, 9, seed=seed)
            tr = run_equal_deadline(inst)
            assert tr.lb == volume_lower_bound(inst.jobs,
                                               int(inst.common_deadline))

    def test_transcript_json_shape(self):
        inst = equal_deadline_instance(3, 8, seed=1)
        doc = run_equal_deadline(inst).to_jsonable()
        assert doc["kappa"] == 3 and doc["d"] == 7
        assert len(doc["phases"]) == 3
        for row in doc["phases"]:
            for key in ("i", "a", "b", "l", "m_short", "m_long",
                        "opened", "closed"):
                assert key in row
        for row in doc["schedule"]:
            for key in ("id", "machine", "start", "end", "class"):
                assert key in row


@pytest.mark.parametrize("kappa, jobs, seed", sorted(GOLDEN_TRANSCRIPTS))
def test_transcript_bytes_are_pinned(kappa, jobs, seed):
    doc = run_equal_deadline(equal_deadline_instance(kappa, jobs, seed)).to_jsonable()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_TRANSCRIPTS[kappa, jobs, seed]


@pytest.mark.parametrize("kappa, jobs, seed", sorted(GOLDEN_INSTANCES))
def test_instance_bytes_are_pinned(kappa, jobs, seed):
    text = write_instance(equal_deadline_instance(kappa, jobs, seed))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_INSTANCES[kappa, jobs, seed]


#: sha256 of ``json.dumps(run_equal_deadline(read_instance(write_instance(inst)))
#: .to_jsonable(), sort_keys=True)`` for ``inst = equal_deadline_instance(9,
#: 1000, seed)``, keyed by seed: the benchmark's own path.  A file read back
#: holds its times over ``10**4``, not the generator's sixteenths.
READ_BACK_TRANSCRIPTS = {
    0: "c55814894fdac2de950022ff149e2b55350729ced715b845968073a72ad0e0c0",
    7: "77654a27015d6b580c5aed6e709439ceeac5a36aec1d2033ef7e84d8fba92cb1",
    1_000_003: "bf8590741a09a43b1494b7b46815b31efa7f18f18e7d0beef2ec08469ac676eb",
}


@pytest.mark.parametrize("seed", sorted(READ_BACK_TRANSCRIPTS))
def test_read_back_transcript_bytes_are_pinned(seed):
    back = read_instance(write_instance(equal_deadline_instance(9, 1000, seed)))
    assert back.jobs.scale == 10**4
    doc = run_equal_deadline(back).to_jsonable()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == READ_BACK_TRANSCRIPTS[seed]


@pytest.fixture
def no_grid_rows(monkeypatch):
    """Building a ``Job`` row from grid columns fails: iterating a
    ``GridJobs`` and indexing it by an integer raise, while slices still
    give columns."""
    def refuse(*_):
        raise AssertionError("a Job row was built from grid columns")

    getitem = GridJobs.__getitem__
    monkeypatch.setattr(GridJobs, "__iter__", refuse)
    monkeypatch.setattr(GridJobs, "__getitem__", lambda self, index: (
        refuse() if isinstance(index, int) else getitem(self, index)))


def test_equal_deadline_pipeline_builds_no_rows(no_grid_rows):
    # gen -> write -> read -> run -> transcript JSON, as the benchmark op
    profile = cProfile.Profile()
    profile.enable()
    inst = equal_deadline_instance(9, 1000, seed=3)
    back = read_instance(write_instance(inst))
    doc = run_equal_deadline(back).to_jsonable()
    profile.disable()
    built = sum(calls for (path, _, name), (_, calls, *_) in
                pstats.Stats(profile).stats.items()
                if path == fractions.__file__ and name == "__new__")
    assert built == 0
    assert isinstance(back.jobs, GridJobs) and back == inst
    assert len(doc["schedule"]) == 1000


def test_integral_fraction_deadline_runs():
    inst = Instance.of("equal-deadline", [Job(0, 0, Fraction(7), p=1),
                                          Job(1, 0, Fraction(7), p=3)])
    tr = run_equal_deadline(inst)
    assert tr.kappa == 3 and tr.d == 7 and type(tr.d) is int
    assert tr.schedule.assignments == [(1, 0, 0), (0, 0, 4)]
    assert json.dumps(tr.to_jsonable(), sort_keys=True) == json.dumps(
        run_equal_deadline(ed_instance((0, 1, 7), (0, 3, 7))).to_jsonable(),
        sort_keys=True)


@given(st.integers(1, 12), st.integers(0, 60), st.integers(0, 2**32))
@example(1, 40, 0)
@example(12, 60, 5)
def test_generator_matches_fraction_reference(kappa, jobs, seed):
    """Grid columns whose rows are the reference's, field types included
    (``r`` an int when integral, ``p`` a ``Fraction``)."""
    got = equal_deadline_instance(kappa, jobs, seed)
    want = reference_equal_deadline_instance(kappa, jobs, seed)
    assert isinstance(got.jobs, GridJobs)
    assert (got.model, got.k, got.horizon) == (want.model, want.k, want.horizon)
    assert repr(tuple(got.jobs)) == repr(want.jobs)


PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127]


def _exact(x: Fraction):
    return int(x) if x.denominator == 1 else x


@st.composite
def rational_cases(draw):
    """Equal-deadline instances whose times are not all dyadic.

    ``thirds`` mixes lengths of 1/3 and 22/7 with dyadic and thirds times;
    ``coprime`` gives every release and length its own prime denominator,
    so the common denominator is the product of them all; ``boundary``
    releases jobs on phase boundaries with lengths of exactly a quarter
    phase.
    """
    kappa = draw(st.integers(1, 6))
    d = (1 << kappa) - 1
    shape = draw(st.sampled_from(["thirds", "coprime", "boundary"]))
    jobs = []
    for i in range(draw(st.integers(1, 14 if shape == "coprime" else 30))):
        if shape == "coprime":
            qr, qp = PRIMES[2 * i], PRIMES[2 * i + 1]
        else:
            qr, qp = (draw(st.sampled_from([1, 2, 3, 4, 7, 8]))
                      for _ in range(2))
        if shape == "boundary":
            r = Fraction(draw(st.sampled_from(
                [ph.start for ph in phase_split(kappa)])))
        else:
            r = Fraction(draw(st.integers(0, d * qr - 1)), qr)
        room = d - r
        fixed = [x for x in (Fraction(1, 3), Fraction(22, 7),
                             Fraction(1 << max(kappa - 3, 0), 4)) if x <= room]
        top = int(room * qp)
        if fixed and draw(st.booleans()):
            p = draw(st.sampled_from(fixed))
        elif top >= 1:
            p = Fraction(draw(st.integers(1, top)), qp)
        else:
            p = room
        jobs.append(Job(i, _exact(r), d, p=p))
    return Instance.of("equal-deadline", jobs)


def _same_run(inst):
    got, want = run_equal_deadline(inst), reference_run_equal_deadline(inst)
    assert (json.dumps(got.to_jsonable(), sort_keys=True)
            == json.dumps(want.to_jsonable(), sort_keys=True))
    # repr shows the types: starts and lengths are Fractions, even integral
    assert repr(got.schedule) == repr(want.schedule)
    assert repr(got.lengths) == repr(want.lengths)
    assert got.lb == want.lb and got.job_class == want.job_class


@given(st.integers(1, 9), st.integers(0, 80), st.integers(0, 2**32))
def test_runner_matches_fraction_reference_on_dyadic(kappa, jobs, seed):
    _same_run(equal_deadline_instance(kappa, jobs, seed))


@settings(max_examples=200)
@given(rational_cases())
@example(Instance.of("equal-deadline", [Job(0, 0, 7, p=Fraction(1, 3)),
                                        Job(1, Fraction(2, 7), 7, p=Fraction(22, 7)),
                                        Job(2, 4, 7, p=Fraction(1, 3))]))
def test_runner_matches_fraction_reference_on_rationals(inst):
    _same_run(inst)
