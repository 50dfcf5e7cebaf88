"""The entropy profile owns every result derived from its cells.

The dispersion/mixing chains and the third-law windows are the profile's
own cached properties; `dispersion_mixing_bounds`, `third_law`, the report's
entropy section and `q_partition_entropy` all read them, and the selective
change that `intergenerational_ec_change` reports is the profile's own sum
of cell covariances.  The singleton profile is built once per process and
kept with it, read-only.  Comparisons here are exact.
"""

import dataclasses
import json

import numpy as np
import pytest

import pricekit.entropy
from pricekit import (
    Partition,
    Population,
    TypeSet,
    dispersion_mixing_bounds,
    embed_process,
    environmental_profile,
    fitness,
    generating_profile,
    intergenerational_ec_change,
    process,
    q_partition_entropy,
    reversibility,
    third_law,
)
from pricekit.cli import build_unchecked, main
from pricekit.laws import LawReport
from pricekit.process import flow_cells

from conftest import childless_composable_pair, random_composable_pair, random_process
from oracles import search_one_sided_inverses


def random_partition(rng, types: TypeSet) -> Partition:
    ids = rng.integers(0, len(types), len(types))
    return Partition(types, [tuple(c for c, b in zip(types.labels, ids) if b == k)
                             for k in np.unique(ids)])


def dicts(reports) -> list:
    """to_dict() of each report, through JSON as the report writes it."""
    return json.loads(json.dumps([r.to_dict() for r in reports]))


def partition_cases(rng, n: int):
    for _ in range(n):
        p = random_process(rng)
        yield p, None, None
        yield p, random_partition(rng, p.source.types), random_partition(rng, p.target.types)


def test_ns_s_ec_is_the_third_law_lhs():
    rng = np.random.default_rng(7)
    for _ in range(250):
        p, q = random_composable_pair(rng)
        assert intergenerational_ec_change(p, q).ns_s_ec == third_law(p)["ns_s_ec"].lhs


def test_library_functions_return_the_profile_chains():
    rng = np.random.default_rng(70)
    for p, part_a, part_b in partition_cases(rng, 60):
        prof = environmental_profile(p, part_a or Partition.singletons(p.source.types),
                                     part_b or Partition.singletons(p.target.types))
        assert prof.bounds is prof.bounds and prof.third_law is prof.third_law
        assert prof.equilibrium_class == fitness(p).equilibrium_class
        assert dicts(dispersion_mixing_bounds(p, part_a, part_b)) == dicts(prof.bounds)
        windows = third_law(p, part_a, part_b)
        assert list(windows) == ["ns_s_ec", "ns_s_dis", "ns_s_mix"]
        assert dicts(windows.values()) == dicts(prof.third_law.values())


def test_report_entropy_section_is_the_generating_profile(tmp_path):
    rng = np.random.default_rng(71)
    for n in range(20):
        p = random_process(rng, kmax=5)
        doc = {"types": list(p.source.types.labels), "weights": list(p.source.weights),
               "kernel": p.kernel.tolist()}
        part_a = random_partition(rng, p.source.types)
        part_b = random_partition(rng, TypeSet.range(len(p.target.types), prefix="c"))
        doc["partitions"] = {"source": [list(b) for b in part_a.blocks],
                             "target": [list(b) for b in part_b.blocks]}
        path, out = tmp_path / f"p{n}.json", tmp_path / f"r{n}.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--entropy", "--json", str(out)]) == 0
        section = json.loads(out.read_text())["entropy"]

        p = build_unchecked(doc)
        prof = generating_profile(p)
        assert [section[k] for k in ("s_ns", "s_ec", "s_dis", "s_mix", "s_tot")] == [
            prof.s_ns, prof.s_ec, prof.s_dis, prof.s_mix, prof.s_tot]
        assert [section["dispersion_bounds"], section["mixing_bounds"]] == dicts(prof.bounds)
        assert section["third_law"] == dict(zip(prof.third_law, dicts(prof.third_law.values())))
        block = environmental_profile(p, Partition(p.source.types, part_a.blocks),
                                      Partition(p.target.types, part_b.blocks)).third_law
        assert section["block_third_law"] == dict(zip(block, dicts(block.values())))


def test_q_partition_entropy_reports_are_its_profile_chains():
    rng = np.random.default_rng(72)
    for _ in range(10):
        p = random_process(rng, kmax=4)
        k, k2 = p.kernel.shape
        res = q_partition_entropy(embed_process(p), [np.diag(e) for e in np.eye(k)],
                                  [np.diag(e) for e in np.eye(k2)])
        prof = res.profile
        assert res.third_law is prof.third_law
        assert prof.suffix == "_partition"
        assert {key: r.name for key, r in res.third_law.items()} == {
            "ns_s_ec": "third_law_ec_partition",
            "ns_s_dis": "third_law_dis_partition",
            "ns_s_mix": "third_law_mix_partition",
        }
        assert [r.name for r in third_law(p).values()] == [
            "third_law_ec", "third_law_dis", "third_law_mix"]


# Flow shares between EPS_ZERO and about EPS_SAT: the obstruction stays within
# EPS_SAT while the inverse built for that side fails its composition check.
TINY_FLOW = [
    ([0.7, 1, 1], [[0, 0, 0, 0], [0.8, 0, t, 0], [0, 0.6, 0, 0]])
    for t in (4e-11, 1e-11, 4e-12, 1e-13)
] + [([1, m], [[1, 0], [0.5, 0.5]]) for m in (1e-9, 1e-11, 1e-14)]


@pytest.mark.parametrize("weights, kernel", TINY_FLOW)
def test_reversibility_near_the_zero_threshold(weights, kernel, tmp_path, capsys):
    p = process(Population(TypeSet.range(len(weights)), weights), kernel)
    v = reversibility(p)
    assert (v.left_invertible, v.right_invertible) == search_one_sided_inverses(p)
    assert (v.retraction is not None, v.section is not None) == (
        v.left_invertible, v.right_invertible)
    assert v.invertible == (v.inverse is not None)
    assert 0.0 <= v.dis_obstruction <= 1e-7 and 0.0 <= v.mix_obstruction <= 1e-7

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"types": list(p.source.types.labels),
                                "weights": weights, "kernel": kernel}))
    assert main(["report", str(path)]) == 0
    rev = json.loads(capsys.readouterr().out)["entropy"]["reversibility"]
    assert (rev["left_invertible"], rev["right_invertible"]) == (
        v.left_invertible, v.right_invertible)


# ---------------------------------------------------------------------------
# The kept singleton profile


def test_generating_profile_is_kept_with_the_process():
    rng = np.random.default_rng(73)
    for _ in range(20):
        p = random_process(rng)
        prof = generating_profile(p)
        assert generating_profile(p) is prof
        assert dispersion_mixing_bounds(p) is prof.bounds
        windows = third_law(p)
        assert windows is not third_law(p) and windows == prof.third_law
        assert all(windows[k] is r for k, r in prof.third_law.items())


def test_third_law_dict_is_the_callers_own():
    p = random_process(np.random.default_rng(74))
    windows = third_law(p)
    windows.clear()
    assert list(third_law(p)) == ["ns_s_ec", "ns_s_dis", "ns_s_mix"]


@pytest.fixture
def profile_builds(monkeypatch):
    """The arguments of every environmental_profile call."""
    calls = []
    original = pricekit.entropy.environmental_profile

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pricekit.entropy, "environmental_profile", counting)
    return calls


def test_one_singleton_profile_per_process(profile_builds):
    rng = np.random.default_rng(75)
    for _ in range(10):
        p, q = random_composable_pair(rng)
        profile_builds.clear()
        for _ in range(2):
            generating_profile(p)
            third_law(p)
            dispersion_mixing_bounds(p)
            intergenerational_ec_change(p, q)
        assert len(profile_builds) == 1


def test_explicit_partitions_build_every_time(profile_builds):
    rng = np.random.default_rng(76)
    p = random_process(rng, kmin=2)
    part_a = random_partition(rng, p.source.types)
    part_b = random_partition(rng, p.target.types)
    generating_profile(p)
    profile_builds.clear()
    third_law(p, part_a, part_b)
    third_law(p, part_a, part_b)
    dispersion_mixing_bounds(p, part_a, part_b)
    third_law(p, part_a, None)
    assert len(profile_builds) == 4
    assert generating_profile(p) is generating_profile(p) and len(profile_builds) == 4


def test_kept_profile_equals_a_fresh_build_bit_for_bit():
    """On 100 seeded processes with childless rows and weights x 10^{0, +-60},
    the kept profile, read after every other function that reads p's kept
    results, equals a new singleton profile in every cell array, total, bound
    and window."""
    rng = np.random.default_rng(77)
    for n in range(100):
        p, q = childless_composable_pair(rng, scale=10.0 ** (0, 60, -60)[n % 3])
        intergenerational_ec_change(p, q)
        reversibility(p)
        third_law(p)
        kept = generating_profile(p)
        fresh = environmental_profile(p, Partition.singletons(p.source.types),
                                      Partition.singletons(p.target.types))
        assert kept is not fresh
        for f in dataclasses.fields(kept.cells):
            got, want = getattr(kept.cells, f.name), getattr(fresh.cells, f.name)
            if isinstance(want, np.ndarray):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name
        assert [kept.s_ns, kept.s_ec, kept.s_dis, kept.s_mix, kept.s_tot] == [
            fresh.s_ns, fresh.s_ec, fresh.s_dis, fresh.s_mix, fresh.s_tot]
        assert json.dumps([r.to_dict() for r in kept.bounds]) == json.dumps(
            [r.to_dict() for r in fresh.bounds])
        assert json.dumps({k: r.to_dict() for k, r in kept.third_law.items()}) == json.dumps(
            {k: r.to_dict() for k, r in fresh.third_law.items()})


def kept_arrays(rng):
    """(what, array) for every cell array of a singleton, a block and a
    projection profile, and for the flow cells."""
    p = random_process(rng, kmin=2)
    k, k2 = p.kernel.shape
    profiles = {
        "singleton": generating_profile(p),
        "block": environmental_profile(p, random_partition(rng, p.source.types),
                                       random_partition(rng, p.target.types)),
        "projection": q_partition_entropy(embed_process(p), [np.diag(e) for e in np.eye(k)],
                                          [np.diag(e) for e in np.eye(k2)]).profile,
    }
    for kind, prof in profiles.items():
        for f in dataclasses.fields(prof.cells)[2:]:
            yield f"{kind}.{f.name}", getattr(prof.cells, f.name)
    yield "flow_cells", flow_cells(p)


def test_kept_arrays_are_read_only():
    rng = np.random.default_rng(78)
    seen = 0
    for _ in range(5):
        for what, arr in kept_arrays(rng):
            assert not arr.flags.writeable, what
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
            seen += 1
    assert seen == 5 * (3 * 12 + 1)


def test_flow_cells_are_kept_with_the_process():
    p = random_process(np.random.default_rng(79))
    assert flow_cells(p) is flow_cells(p)


def test_kept_third_law_windows_are_read_only():
    """The kept profile's windows are a read-only mapping: a write into them
    raises and every later ``third_law(p)`` reads the windows the profile built."""
    p = process(Population(TypeSet(["a", "b"]), [1, 2]), [[1, 1], [0.5, 0]])
    windows = third_law(p)
    with pytest.raises(TypeError):
        generating_profile(p).third_law["ns_s_ec"] = windows["ns_s_dis"]
    assert third_law(p) == windows and third_law(p)["ns_s_ec"] is windows["ns_s_ec"]


def test_kept_law_reports_are_read_only():
    """A caller cannot write into a kept report's extras, so every later
    caller reads the values the profile computed; extras are a copy."""
    p = process(Population(TypeSet(["a", "b"]), [1, 2]), [[1, 1], [0.5, 0]])
    windows = {k: r.to_dict() for k, r in third_law(p).items()}
    bounds = [r.to_dict() for r in dispersion_mixing_bounds(p)]
    with pytest.raises(TypeError):
        third_law(p)["ns_s_ec"].extras["lower_bound"] = 123.0
    for rep in dispersion_mixing_bounds(p):
        with pytest.raises(TypeError):
            rep.extras["s_ec"] = 123.0
    assert {k: r.to_dict() for k, r in third_law(p).items()} == windows
    assert third_law(p)["ns_s_ec"].extras["lower_bound"] == windows["ns_s_ec"]["extras"]["lower_bound"]
    assert [r.to_dict() for r in dispersion_mixing_bounds(p)] == bounds
    extras = {"lower_bound": 1.0}
    rep = LawReport(name="r", lhs=0.0, bounds=(1.0,), direction="le",
                    equilibrium_class="generic", extras=extras)
    extras["lower_bound"] = 2.0
    assert rep.extras == {"lower_bound": 1.0} and rep.to_dict()["extras"] == {"lower_bound": 1.0}
