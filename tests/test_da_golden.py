"""Golden outputs of deferred acceptance in both directions.

Each small-market digest is the SHA-256 of the exit code, stdout and
stderr of four ``solve --trace`` runs on one market: copies and workers
proposing, each under the default sibling rule and under its strict flag
(``--no-reauthorize`` for copies, ``--no-release`` for workers).  The
markets are the reference market and forty seeded ``gen`` markets with
3-6 workers, 2-3 firms, 2-4 orders per firm and acceptability density
0.6-1.0; several strict runs end in the exit-3 stability abort, so its
message is pinned too.

The large-market digests cover two ``gen --workers 9 --firms 3
--max-orders 3 --density 0.8`` markets (1,089 and 2,934 copies) and are
computed in process, because ``--trace`` prints tens of megabytes per
workers-proposing run at that size.  Each pins every stage's offers,
rejections, screening record and matching, plus the stability abort's
message where a strict run ends in one.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from matchdecomp import (
    DeferredAcceptanceError,
    GenParams,
    build_associated_market,
    copies_propose,
    random_market,
    workers_propose,
)
from matchdecomp import da
from matchdecomp.cli import main

from conftest import REFERENCE_PATH

RUNS = (
    ("copies", "--reauthorize"),
    ("copies", "--no-reauthorize"),
    ("workers", "--release"),
    ("workers", "--no-release"),
)

DENSITIES = (0.6, 0.7, 0.8, 0.9, 1.0)


def gen_argv(i: int) -> list[str]:
    return [
        "--workers", str(3 + i % 4),
        "--firms", str(2 + i // 4 % 2),
        "--max-orders", str(2 + i // 8 % 3),
        "--density", str(DENSITIES[i % 5]),
        "--seed", str(i + 1),
    ]


def run_quietly(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def solve_digest(path: str) -> str:
    digest = hashlib.sha256()
    for proposing, flag in RUNS:
        code, out, err = run_quietly(
            ["solve", path, "--proposing", proposing, flag, "--trace"]
        )
        for part in (str(code), out, err):
            data = part.encode()
            digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


GOLDEN = {
    "reference": "741a662f8b3cb1e3aa7df6d56ae7f8e6ab58780ae27b4914842c1b63c00da108",
    "gen00": "50aaf6eb26e09e6379c07224372189b6bfc75eb82682e00f24f369a02374fedb",
    "gen01": "595509d4e4eff97b36a23887d2d7660b8b68bbd44653fbbe524c8723d3970e74",
    "gen02": "5fdc079f986ebc17a8faa96511947e7937be8d4559ac496796ca4524204e1bb5",
    "gen03": "ebc3cb5ba37e6446138580a6cb30af6d094a9493337c8c0b02ffc228fd826aa9",
    "gen04": "9cd416da5f6fcc52350bbb712b7c3eb7b975dfc3f777c07c37e02e4f5962feef",
    "gen05": "f3dc727e4651f8b48c06dd848cf7ee6579f3ad48a240c32568e7cbb28aaed3d9",
    "gen06": "e2f2da469fb63a8bdebcc62ab2b5cb2fc3476f2c68d38441c35f76fdf7deb672",
    "gen07": "1cf9fdefd3f2bf877459e90953f3f51ac02310023dd3889ae0d1405357be9049",
    "gen08": "8e5e54b64ad337d52ffdbcdc6a5952ba205d4f7d3e923b3a2c0dd3013fb9fdfa",
    "gen09": "3b9c09c568e2f7473de61e3370f4fd3f096c8b0aa8c5aaa5ce0e12b8d4eb2902",
    "gen10": "fcddc473dcc2ea32b0090f292b5a83dca7233de1ba8326031eb5ceda2c8b8d98",
    "gen11": "8df7c6b72929df8e598c94a78e14e082105826a468cdd23b3b5261a8f7a79d67",
    "gen12": "348c6395d310a38e29a69157cd2c8d5c807820111d7e28500f7861ce5e3a25c0",
    "gen13": "9a0e4ddbf1d4b9cd87b218cb307d329a4b7357f30ac40ef19321a10d4d7cd533",
    "gen14": "e1ea54ada6162c6ebb0e5c9b5a08fc868bc401d8adc396eee6e6722b84695e49",
    "gen15": "bc1e547c8cd580576a14156d8258462778d5808f048a809ca595f95ea3b7181c",
    "gen16": "c9a773a0b106d8de38885b48bca79234b0743f3b095e81d18a8d9b594eed0106",
    "gen17": "49745084710d28be89234b487d3abd4dbf34a289b4ca325064a49a100eeb31bb",
    "gen18": "0fe68f0335e6bbf2bbaac96ffbc49d7bcf965e21056be28b44078cb118f47355",
    "gen19": "403ce738f533e96ed4a93443a8cd8099e4a672898c7aab3233072ae9b128c1a1",
    "gen20": "3986b9b5c73aeffd35cba1724a9fb75f4be78ea276da47b58987c73b5b485b9e",
    "gen21": "4327d38977aa5dbf887f5dd81ec4e54f8a02cdf40f23cf4f4e37c03666c881ca",
    "gen22": "314ab8cd7691c347b83559c9e4b3d4f54e9c208da757d1105290113bfd14c831",
    "gen23": "90164362bc3c037e976d0cf342322fdd63dbfb258c5f432521c2e751dfc234f0",
    "gen24": "ee7b19441df6e92778eded310b1888af0de39e34aba063983ec4647e3d99c232",
    "gen25": "ffa600abcc41bb91acea7635793fa43baab67cee65d9d2e7200a9e865e197747",
    "gen26": "2bfcbfd4617688519bb1aabd4886cccb2982350e33867bf35e0ee99605d00f84",
    "gen27": "ddc071a0deed724a47e5444275699838bab94746a86a426a704a06aa2e64524b",
    "gen28": "5fadcba2aa780d523f8757f40a61f9651b305efe4ee62349593f12d06115b765",
    "gen29": "45bef2196f7012af6ab887082b7ef20256351b088fbbe08cd3f25e0c5ab4f457",
    "gen30": "b77bd97880ccf41f9013c6ef6fa249f0ef444726241acf9181e4f825a0d9e48f",
    "gen31": "896e77de34011e26cbe10acaba46dd338a1885bc5ed4e5cafe94578b872d60f3",
    "gen32": "4ee3ed2b82d7d1f839edf0a733d12d219b731f7e940a92f038ec227aaa104675",
    "gen33": "a31e9044330674ff7cf34850b5464103cdd3d1268e29a4d608e5c4ba4ada9fed",
    "gen34": "903b234f99c242826213f00bba089e3c9e3fd3cb8c9079a3961b09e77e95c479",
    "gen35": "6df93ce9e1e5943ee397345478f6998374d576331e71ad6a47dea9b1e75b3d5a",
    "gen36": "abb5b24bc49642fb60dab4545b7055de8d52f4572d2aa2c97bbc989e9cb442ec",
    "gen37": "ccb1d62b50c4920c2affd4a6fbc30cc0b61918909a628ec3804088b9d79977aa",
    "gen38": "ff184c6ce55697053a920e40f63e2998cdbed869853366150e2df68a7318a47f",
    "gen39": "fa1258842570ab69e7444baa11a8e96342a967f8347f63d637b481388ee73f43",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_trace_is_byte_stable(name, tmp_path):
    if name == "reference":
        path = REFERENCE_PATH
    else:
        path = str(tmp_path / "market.json")
        code, _, _ = run_quietly(["gen", *gen_argv(int(name[3:])), "--out", path])
        assert code == 0
    assert solve_digest(path) == GOLDEN[name]


LARGE_RUNS = {
    "copies": (copies_propose, "reauthorize"),
    "workers": (workers_propose, "release"),
}

LARGE_GOLDEN = {
    (1, "copies", True): "7495642cb2bf4b52addda993c2bea2d9721f3da9fbfb883c8e95c0507045f102",
    (1, "copies", False): "1ba10d3c0859c308719165b9779dc518c4eac7cb774fcc663d0ccbd4917600d0",
    (1, "workers", True): "e345b991e0661383ec26376697a466d93115b890159b36de5976d1ed0d35cf01",
    (1, "workers", False): "d0d351f8e2c98b360fb12de8c3637383df3d6869d68a32249017799b21d95221",
    (2, "copies", True): "9d366d6df9e70a0dcb5b076f5b6e178484cf7d8c10ad9e051b353d79ff71cae0",
    (2, "copies", False): "88f042e3f77fdc10a79dddaa3c99a57a980c79dd1b6541533ce75a01a2abc3ac",
    (2, "workers", True): "43b02de18bc7533698ac6b002f35b598181c16be737324ca381137ace0e0512e",
    (2, "workers", False): "4c5fca4baa867d77bf36ca90e0091a33ba368f75d6c34e483702b9c107a8a684",
}


@pytest.fixture(scope="module")
def large_assocs():
    return {
        seed: build_associated_market(
            random_market(
                GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=seed)
            )
        )
        for seed in (1, 2)
    }


def stage_digest(assoc, proposing: str, default: bool, monkeypatch) -> str:
    """Digest of every stage of one run, plus the abort message if any.

    The closing assertion still runs; its error is recorded instead of
    raised, so a strict run that aborts still yields its trace.
    """
    messages = []
    require_stable = da.require_stable

    def record(report, assoc, producer):
        try:
            require_stable(report, assoc, producer)
        except DeferredAcceptanceError as exc:
            messages.append(str(exc))

    monkeypatch.setattr(da, "require_stable", record)
    run, flag = LARGE_RUNS[proposing]
    _, trace = run(assoc, **{flag: default})
    digest = hashlib.sha256()
    for stage in trace.stages:
        screened = stage.authorized if proposing == "copies" else stage.valid_offers
        row = (
            stage.number,
            sorted(stage.offers.items()),
            sorted(stage.rejections.items()),
            sorted(screened.items()),
            stage.matching.by_worker,
        )
        data = repr(row).encode()
        digest.update(len(data).to_bytes(8, "big") + data)
    data = repr(messages).encode()
    digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(LARGE_GOLDEN))
def test_large_market_stages_are_stable(key, large_assocs, monkeypatch):
    seed, proposing, default = key
    assert stage_digest(large_assocs[seed], proposing, default, monkeypatch) == (
        LARGE_GOLDEN[key]
    )
