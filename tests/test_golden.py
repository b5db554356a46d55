"""Byte-level golden output: SHA-256 digests of the CLI's stdout.

Value-level tests cannot see a reordered or skipped zero term in a product
loop, because `CycNum.to_json` prints whichever conductor a computation ends
in.  These digests pin every byte.  They were recorded before the orbifold
and resolution rings were merged into one sector ring; re-record one only
when a change is meant to alter that command's output.  The `mckay`
digests were recorded before the McKay module was rebuilt around one
class-function inner product, and the `reconcile-6-2` digests before the
derived A_2 table was read from the shared structure-constant table.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from crepant.cli import run

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _cfg(name):
    return os.path.join(CONFIGS, f"{name}.json")


GOLDEN = [
    ("orb-table a1_p1", "90b07cee0de92bb0837c853b3d59c3be0b2ca28547bfc0ed3f72748bc043fd6c"),
    ("res-table a1_p1", "350201c8c3d01bce275aca1a88906feeedecc645d10c8f2315bdc312ec23bf73"),
    ("qc-table a1_p1 --q=zeta3",
     "e906d521a991ec91112d6c3b6466058d5957836bb8f18231df0db95716befe06"),
    ("check-assoc a1_p1 --ring orb",
     "0c3b8361723e213eeb81ac169869786e8f13f95498f8d9dc69d87c7480c2cfe0"),
    ("check-assoc a1_p1 --ring classical",
     "3f0baade1a9476bff69b8d267522cdb971efbe2e0f06829edfc5c7a7e20ff490"),
    ("check-assoc a1_p1 --ring quantum --q=zeta3",
     "89cedfbe50936e70a50fc2d39456b11e4979cb40a55fe2f80c7dd72345268054"),
    ("gw a1_p1 --span 1,1 --insert E1,E1,E1",
     "fe7a2b9b854ced67ddf4b8d51c14c144cf70564a3f819b13366ffc0649477545"),
    ("orb-table a2_p1", "dea1c7dbef306f7f658959877bc4ed4fd1cdc4868601b5becafb9c133f8aee3c"),
    ("res-table a2_p1", "2b96cb14a653aed5219065c98a5808f7205face8f8fd2f2040d47d680ceeb964"),
    ("qc-table a2_p1 --q=zeta3",
     "3d21e0e05a0c519b672d267141c601df37b58bbb21bbede794e41e1f3293e17a"),
    ("check-assoc a2_p1 --ring orb",
     "c7162f952d84c143695cad7002e0ef6f592d63c0ad945df4bbc5e2ff482d330b"),
    ("check-assoc a2_p1 --ring classical",
     "59fd9e82c1d31c29574b117f462e6e2bfc51006ff5235ef162241469ca7c37eb"),
    ("check-assoc a2_p1 --ring quantum --q=zeta3",
     "672fbed39132775f81830ca75ed346902e7dffd77c83a2a536046137ce7e702f"),
    ("gw a2_p1 --span 1,1 --insert E1,E1,E1",
     "c102fe5fdc14bd603513f6814102010ad39bfef5c1e314c9156a0746f92fd271"),
    ("gw a2_p1 --span 1,2 --insert E1,E2,E2",
     "e061ae0c2503a2619a9968984903e3409635640eacc4d84668e09f730df0cc9b"),
    ("solve-a2 a2_p1", "2a3dcea7950f07af06df54dbec0f9746e307fccc601463f07526666509fbced1"),
    ("orb-table a2_point", "7ffb9f5b892c7eba92c61055266cd1705c689254b927de2f2dbeb663086c9785"),
    ("res-table a2_point", "b5675c15a1b8bac9105d2276fe0b942f538a95fce723fe1d6ece92f8ac3b7994"),
    ("qc-table a2_point --q=zeta3",
     "6de02437ae2bffec2b6a7d21483e778ae938bbd73dd7cb46d1a3a3465cb1521a"),
    ("check-assoc a2_point --ring orb",
     "686ebb201c9cbdddbbabd58e59566a20e50c557632f563d757627e705a96ea7d"),
    ("check-assoc a2_point --ring classical",
     "827282cc7c56e670903a8e9e96eabdbeac378aedfc76be0bec46e22c95e325f0"),
    ("check-assoc a2_point --ring quantum --q=zeta3",
     "61daac80c580eac7d9e295e154b20ed5d3847ba27567b816069d83e0ba6dcb80"),
    ("gw a2_point --span 1,1 --insert E1,E1,E1",
     "66aa4daf1ab1b571e2aa6f9168d1ca57af76cac149c90ec6f0a2509f27f97d11"),
    ("gw a2_point --span 1,2 --insert E1,E2,E2",
     "4c0c87e3b2d8172a9aa6bfd0bc0c39f4023ce816ee998b75e83faebf357b08f3"),
    ("solve-a2 a2_point", "26255214728ac82558bd7a39c8154e1e48189c44469c85b332225df00435ba11"),
    ("verify-a1 a1_p1 --q=-1 --scalar zeta4/2",
     "773591c8b1649865811dfb73c479a276a71c4f5ed424840c2cb371304c6927a0"),
    ("verify-a1 a1_p1 --q=-1 --scalar zeta5",
     "6f36b00e7f0aa8ddab71213a7c29f7322b8620685ae335c788766d17a2fe1c4f"),
    # values mixing two conductors: Q(zeta8) or Q(zeta3) and Q(zeta24)
    ("verify-a1 a1_p1 --q=zeta3 --scalar=1/2*zeta8^3",
     "6d40858b6c833d4e86e5f37f7d62951b7fbbefff03c5ad54d8e17adbfc927bdb"),
    ("verify-a1 a1_p1 --q=zeta8^3 --scalar=zeta3",
     "c939aaa3c5be470e18b2ccda97ffe24e256e4e39fc2b8e2e667f6f68ad868249"),
    # n = 4, recorded before the correction became a closed-form root sum
    ("res-table a4_p1", "f4d0011772f2dea7f3bde253f12b3c09e0dcd26da2771c8db126a12b0eac2dec"),
    ("qc-table a4_p1 --q=zeta12,zeta5,zeta8,zeta3",
     "1cd2eaf8e1a67afb9373b6c0062fd5640898ee40c8b296ace201ad6389e2d177"),
    ("check-assoc a4_p1 --ring quantum --q=2,-1,1/2,3",
     "6bd978473a685060553c45395d43a99be639a41c43b3e1ea67acb33906b16c29"),
    # n = 3 over P^2: rank-3 blocks, recorded before tables were written from sparse rows
    ("orb-table a3_p2", "f13bbf89c4c92271611d4d85de96144c70e25ab56ddad0981fa9eccf650dc829"),
    ("res-table a3_p2", "1ad94dba5214b38b054277692489536825ad7b68536a653babb0dcd974e540cc"),
    ("qc-table a3_p2 --q=zeta5",
     "b2c2dab1c25a4e749cd4ec7133000974317a16b7e15a7e6975786984a4bd5b54"),
    ("gw a3_p2 --span 1,2 --insert E1,E2,E2",
     "1e0dc6c4b72ee60700a69a442f4268be9a211efec35c64f832c99fd3a318dc2a"),
]


def _argv(case):
    command, config, *rest = case.split()
    return [command, "--config", _cfg(config), *rest]


@pytest.mark.parametrize("case, digest", GOLDEN, ids=[case for case, _ in GOLDEN])
def test_golden_stdout(case, digest):
    out = io.StringIO()
    assert run(_argv(case), stdout=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


MCKAY_GOLDEN = [
    ("A0", "b4ba3834e76f8c1e827fc2da8211ce4ce204bd39d84603c51dd3753f22953583"),
    ("A1", "44aa1286f9547794cc0503b9f10b39bf47f288e2e0c4a147b3da3cafcd2b795d"),
    ("A2", "17ca561710cb6f70298672ba630d3e5a4ccaede1c6587e5b37df81bdcf546eb1"),
    ("A5", "28d1fdf3202948dc48125ca1940c4111719f639e9c1ccc52ab2bbd756fb5a379"),
    ("A10", "c2469daded4aae16483b9b632c43551348e17adc81d6b710d41b2e5d4a69e100"),
    ("D4", "cc7f3714844e706aa9c521700dba0ce240dbf8b7d956c36d5ba7301d0a235cde"),
    ("D5", "96104cb0b223562ec20e5c35cd350272a0a8123ca80e9416b1b16cff59510fca"),
    ("D10", "200fd6196b1d1aab1e95f6c2d5f24146dc0bd0683b034784b1c6ece72a8e6213"),
    ("E6", "fef27b0196743a7a2cd5e3d63b0eb0de5142f5b6bbf4d90b93277c26205993eb"),
    ("E7", "4377cfc3f404521d9ddbdf9c5ba74199746492229f02e4a8087d904dd17dca5a"),
    ("E8", "feba47e869d4cd9463ccb09660ab8216d2f213824f27260d59fe79c1737d843d"),
]


@pytest.mark.parametrize("group, digest", MCKAY_GOLDEN, ids=[g for g, _ in MCKAY_GOLDEN])
def test_golden_mckay_stdout(group, digest):
    out = io.StringIO()
    assert run(["mckay", "--group", group], stdout=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


RECONCILE_GOLDEN = [
    ("json", "02ca46f775493d0d1ba08ee9ca11c725d6d744827cb44f754cd8d2364ddb4dfa"),
    ("text", "7f42356913d088b388b6753d6a2c8497fb01de4b046a261d679538c7506e4f7d"),
]


@pytest.mark.parametrize("output, digest", RECONCILE_GOLDEN,
                         ids=[o for o, _ in RECONCILE_GOLDEN])
def test_golden_reconcile_stdout(output, digest):
    out = io.StringIO()
    assert run(["--output", output, "reconcile-6-2"], stdout=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


JSON_CASES = ([(case, _argv(case)) for case, _ in GOLDEN]
              + [(f"mckay {group}", ["mckay", "--group", group]) for group, _ in MCKAY_GOLDEN]
              + [("reconcile-6-2", ["reconcile-6-2"])])


@pytest.mark.parametrize("case, argv", JSON_CASES, ids=[case for case, _ in JSON_CASES])
def test_golden_json_is_what_json_dumps_writes(case, argv):
    # the CLI's own JSON writer against json.dumps(indent=2) of the same value
    out = io.StringIO()
    assert run(argv, stdout=out) == 0
    text = out.getvalue()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _captured(argv):
    """(exit code, stdout, stderr) of one `run`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, stdout=out)
    return code, out.getvalue(), err.getvalue()


# help, usage and a usage error: the paths where the parser itself prints
PARSER_PATHS = [["--help"], ["no-such-command"], ["qc-table", "--config", _cfg("a2_p1")]]


def test_one_parser_serves_every_run():
    # printing help, usage and a usage error must leave every later answer
    # as the first run in the process gives it
    first = [_captured(argv) for argv in PARSER_PATHS]
    assert [code for code, _, _ in first] == [0, 1, 2]
    assert "--q" in first[2][2]
    assert [_captured(argv) for argv in PARSER_PATHS] == first
    golden = ([(_argv(case), digest) for case, digest in GOLDEN]
              + [(["mckay", "--group", group], digest) for group, digest in MCKAY_GOLDEN]
              + [(["--output", output, "reconcile-6-2"], digest)
                 for output, digest in RECONCILE_GOLDEN])
    for argv, digest in golden:
        code, out, err = _captured(argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, ""), argv
