"""Golden outputs: SHA-256 digests of what the CLI writes for the shipped
configs.  Outputs are deterministic by contract, so any change to these
bytes is a change in behaviour, not in implementation.

The verify digests cover stdout with the per-check `[x.xxs]` times
removed.  p3n3r1 and p3n3r2_shifted put an odd prime at n = 3 in the
grid: at p = 2, -1 = 1 hides sign errors in every mod-p routine.  To recompute a digest, run the command by hand and hash its
output the same way `_digest_*` below does.

The constructor digests cover the library instead of the CLI: every
constructive factorization, unit split and special subgroup, written as
matrices, on every index (and pair of indices) below order 120, on a
stride of every 40th index at (2,4,2), and on every complement; there
the unit splits also see every 40th unit.  Which inputs raise, and with
which error, is part of the digest.  Each construction is its batch on
one-element index arrays, each unit split the element's cell of the
stacked unit layer's product grid (s.subgroups.grids; a
PreconditionError for an element with no cell) and each isomorphism
verdict the layer's s.subgroups.isomorphic: the digests were taken from
single-index functions and per-W views that read exactly these, and
hold unchanged.
"""

import hashlib
import pathlib
import re
from functools import partial

import pytest

from glsemi.cli import ENV_ENUM_CAP, ENV_RANK_CAP, build_instance, load_config, main
from glsemi.errors import InfeasibleError, PreconditionError
from glsemi.gl_restriction import (
    FIX_U,
    FIX_W,
    G_W,
    N_W,
    dclass_witness_grid,
    enumerate_semigroup,
    factor_through_grid,
    raise_factors,
    regular_witnesses,
    sandwich_factor_grid,
    special_subgroup,
)

from helpers import matrices, one, split_cell

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
_TIME = re.compile(r" \[\d+\.\d\ds\]$", re.M)

REPORT = {
    "p2n2r1": "15c16d4c3b6b5234a41dfd9fa93d9c53ec0d2f38dca276195ffce5f77b63726c",
    "p2n3r1": "6eb03c8130f9a03712621029fd9e378c1f88b78d3fcb5aa309e89c02bcacb53b",
    "p2n3r1_shifted": "9b5bec103beb145dbf619284c0b4b684b70c1444d367458fec36e0a9e78fadee",
    "p2n3r2": "125e6a0e106d947ec521ab7c02df83a145e7b9eb4e7701ed7ab3f00fdd57d9bd",
    "p2n4r2": "78da8dc55ea907261b642c7cc824530bdb2cd56f58b0da0a95decdeb4e2ee276",
    "p3n2r1": "5ad33d55772851c2174a1dd918878b5e200cc320d98c8aff34fd0ec89081c0a2",
    "p3n3r1": "469cb4aacb908d050c60b41c832e700e7c18a84b409fb8fa38cd75b2b0af3ecf",
    "p3n3r2_shifted": "f625e9e62e9337fd36dce0e6b685270f43d0d0db3beb1d6b52c5f797d4441f82",
}
EGGBOX = {
    "p2n2r1": "b98b38b893f837b7b651a384acba9ba2162d4377c7f771142e9c86a6a3c6322c",
    "p2n3r1": "b1fafc5d3add659df98bc3b5d1c59fb715ca52e4fc8b58521ae8f025715a465f",
    "p2n3r1_shifted": "b1fafc5d3add659df98bc3b5d1c59fb715ca52e4fc8b58521ae8f025715a465f",
    "p2n3r2": "6259e7469fba479eeedfe63fee45231c92306037d55e817008864d7acec8e6cd",
    "p2n4r2": "c69b511af2f51521f84448af0f313f37b548e0a8bef7379c067724c927057f35",
    "p3n2r1": "02749a039e400dc5d78fb99096554455cf8fc2b462d491dbedf56ee8eb7bc587",
    "p3n3r1": "89736b8dbe6776526dc48ba9dc4705417a397626b323782c9aa82104249b6d4a",
    "p3n3r2_shifted": "297254df734b772d74cb86597c77a87634a3bbb26fca5a63af26d981b533abb0",
}
# eggbox --cap 4096 on the two stretch instances, standard U.
STRETCH = {
    (2, 4, 3): "bc08d1cddfc8c8145c0f5783c257c863c5db12a421574def01537477f3b3d4f3",
    (2, 4, 1): "0ffc7d578af378d0972eddbb290f5d1a18ee7fbf4db8c446b7e3b12aa3bda2f3",
}
# verify --cap 4096 on the two stretch instances, standard U, times removed.
STRETCH_VERIFY = {
    (2, 4, 3): "e976ff030a6df2596670bad723b8370d77ebd5d497271bc44a86942bf17d602f",
    (2, 4, 1): "21bec38c02556d3c156a613d550c7123d56c73837a77b5df679a037d8e5e4f8e",
}
VERIFY = {
    "p2n2r1": "d3730c795fbc68481f4f568ea1feea5c9d9d1e7e51a8d75e097b95780035083f",
    "p3n2r1": "a8d153a648559bdc81ab6fca40a1ec6af64c87d99b9997afa6e5c6995d4daa22",
    "p2n3r2": "34e9339703a5e0399148d014eeae4eca3680482d579d7930a2e250646628f3e0",
    "p2n3r1": "42c901b69c8b02c2b06b8b170e3633769a390d7aa14ba08de1252387dc0ff38f",
    "p2n3r1_shifted": "42c901b69c8b02c2b06b8b170e3633769a390d7aa14ba08de1252387dc0ff38f",
    "p2n4r2": "8181ed149e017f9e99318c484cbbf9a64f46632a9119935c7645ee542cbaf352",
    "p3n3r1": "9664c5054e2b4d2286b182f12b7deb24e52989d1a3f3c9d807ec9ce312310706",
    "p3n3r2_shifted": "874b55254ab65231d79a689dc3fcee12dff822aab28c2aeb8a1aea5a69c120f9",
}

# factor_through's mu for codim a < codim b kills the head rows of
# D(b, codim a): b's image extension and its later transversal rows.
CONSTRUCTORS = {
    "p2n2r1": "a13db2991efc55992b2b6ec70f7157459e0cfdc978fc2b6af6b9ff451be6c54e",
    "p2n3r1": "fc95ff0c56e45c8b7ef1a67d70d345f850427545d802e53c7b5ec4841a8dc046",
    "p2n3r1_shifted": "a23481cff642263cb13cafc2133333db2ae3b23f3129dfb77d605f707c8ebb65",
    "p2n3r2": "feb5f57e3bda5d9bf3139998ae57988c5b7a2124744a07088b76e25fa7a7a5a3",
    "p2n4r2": "9fe6dcd3d23b8670589c7fbf22929e0dfc1f96916a90b4f2b10e0c32b4c9f722",
    "p3n2r1": "9193406fe8bd0149de2f6e1178fd5cf35329eb9437f4015ba660b4dc2ac7993c",
    "p3n3r1": "20dbf17ddab65573fa6e560e1071cd4deaad1d11f189b605a1916f8cdbfd307f",
    "p3n3r2_shifted": "c32cce8404c009d59571e1a836b7b71dbf1818ce561e2e117a94405d8ed87955",
}


@pytest.fixture(autouse=True)
def _no_cap_env(monkeypatch):
    monkeypatch.delenv(ENV_ENUM_CAP, raising=False)
    monkeypatch.delenv(ENV_RANK_CAP, raising=False)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(command: str, name: str, out: pathlib.Path) -> str:
    assert main([command, "--instance", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == 0
    return _sha(out.read_bytes())


def _digest_verify(name: str, capsys) -> str:
    assert main(["verify", "--instance", str(CONFIGS / f"{name}.cfg")]) == 0
    return _sha(_TIME.sub("", capsys.readouterr().out).encode("utf-8"))


@pytest.mark.parametrize("name", sorted(REPORT))
def test_report_json_is_golden(name, tmp_path):
    assert _digest_file("report", name, tmp_path / "report.json") == REPORT[name]


@pytest.mark.parametrize("name", sorted(EGGBOX))
def test_eggbox_dot_is_golden(name, tmp_path):
    assert _digest_file("eggbox", name, tmp_path / "eggbox.dot") == EGGBOX[name]


def _stretch_cfg(pnr, tmp_path) -> str:
    p, n, r = pnr
    cfg = tmp_path / "stretch.cfg"
    cfg.write_text(f"p = {p}\nn = {n}\nr = {r}\n", encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("pnr", sorted(STRETCH))
def test_stretch_eggbox_dot_is_golden(pnr, tmp_path):
    out = tmp_path / "eggbox.dot"
    assert main(["eggbox", "--instance", _stretch_cfg(pnr, tmp_path), "--out", str(out), "--cap", "4096"]) == 0
    assert _sha(out.read_bytes()) == STRETCH[pnr]


@pytest.mark.parametrize("pnr", sorted(STRETCH_VERIFY))
def test_stretch_verify_stdout_is_golden(pnr, tmp_path, capsys):
    assert main(["verify", "--instance", _stretch_cfg(pnr, tmp_path), "--cap", "4096"]) == 0
    assert _sha(_TIME.sub("", capsys.readouterr().out).encode("utf-8")) == STRETCH_VERIFY[pnr]


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_stdout_is_golden(name, capsys):
    assert _digest_verify(name, capsys) == VERIFY[name]


def _digest_constructors(name: str) -> str:
    s = enumerate_semigroup(build_instance(load_config(str(CONFIGS / f"{name}.cfg"))))
    step = 1 if len(s.table) < 120 else 40
    idxs = range(0, len(s.table), step)
    # The unit splits also see every step-th unit and U-fixing unit, so
    # the strided sample is not all refusals.
    units = s.grades[s.inst.n - s.inst.r]
    split_idxs = sorted(set(idxs) | set(units[::step].tolist()) | set(special_subgroup(s, FIX_U)[::step].tolist()))
    elements = matrices(s)
    h = hashlib.sha256()

    def record(label, fn, *args):
        try:
            out = fn(s, *args)
        except (InfeasibleError, PreconditionError) as exc:
            text = type(exc).__name__
        else:
            text = repr([elements[i] for i in ((out,) if isinstance(out, int) else out)])
        h.update(f"{label} {text}\n".encode("utf-8"))

    for a in idxs:
        record(f"regular_witness {a}", partial(one, regular_witnesses), a)
        record(f"raise_factor {a}", partial(one, raise_factors), a)
        for b in idxs:
            record(f"factor_through {a} {b}", partial(one, factor_through_grid), a, b)
            record(f"dclass_witness {a} {b}", partial(one, dclass_witness_grid), a, b)
            record(f"sandwich_factor {a} {b}", partial(one, sandwich_factor_grid), a, b)
    record("special_subgroup fix_u", lambda s: special_subgroup(s, FIX_U))
    for i, w in enumerate(s.inst.complements):
        for kind in (FIX_W, G_W, N_W):
            record(f"special_subgroup {kind} {w.basis}", lambda s: special_subgroup(s, kind, w))
            h.update(f"subgroup_iso_check {kind} {w.basis} {bool(s.subgroups.isomorphic[kind][i])}\n".encode())
        for a in split_idxs:
            record(f"decompose_unit {a} {w.basis}", split_cell, FIX_W, w, a)
            record(f"decompose_fix_u {a} {w.basis}", split_cell, G_W, w, a)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT))
def test_constructor_results_are_golden(name):
    assert _digest_constructors(name) == CONSTRUCTORS[name]
