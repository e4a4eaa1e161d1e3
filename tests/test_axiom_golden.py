"""Golden outputs of the axiom checks, through ``validate`` and ``verify``.

Each digest is the SHA-256 of the exit code, stdout and stderr of a
``validate`` run and a ``verify`` run on one market.  The markets are the
reference market and forty seeded ``gen`` markets with 3-6 workers, 2-3
firms, 1-3 orders per firm and acceptability density 0.6-1.0, whose first
firm is rewritten as a ``table`` or ``subset_ranking`` firm that fails
substitutability, consistency and the law of aggregate demand in turn.
A ``subset_ranking`` firm is always consistent, so consistency is failed
by tables only.  A table meant to fail the law of aggregate demand is a
union of orders, hence path independent, so ``verify`` gets past the
decomposition on it.  The failing firm is drawn by a seeded loop and kept
once the exhaustive oracle of its axiom rejects it.
"""

import hashlib
import random

import pytest

from matchdecomp import (
    ChoiceFunction,
    GenParams,
    LinearOrder,
    MarketDocument,
    canonicalize,
    dump_market,
    random_market,
)

from conftest import REFERENCE_PATH, with_first_firm
from test_choices import (
    exhaustive_consistency,
    exhaustive_lad,
    exhaustive_substitutability,
)
from test_da_golden import DENSITIES, run_quietly

ORACLES = (exhaustive_substitutability, exhaustive_consistency, exhaustive_lad)


def gen_params(i: int) -> GenParams:
    return GenParams(
        workers=3 + i % 4,
        firms=2 + i // 4 % 2,
        max_orders=1 + i // 8 % 3,
        density=DENSITIES[i % 5],
        seed=100 + i,
    )


def draw_table(rng: random.Random, k: int, redraws: int) -> ChoiceFunction:
    """A union of two random orders as a table, with ``redraws`` menus redrawn."""
    orders = tuple(
        LinearOrder(tuple(rng.sample(range(k), k)[: rng.randint(1, k)]))
        for _ in range(2)
    )
    table = list(canonicalize(ChoiceFunction.from_orders(orders, k)).table)
    for _ in range(redraws):
        menu = rng.randrange(1, 1 << k)
        table[menu] = rng.randrange(1 << k) & menu
    return ChoiceFunction.from_table(table, k)


def draw_ranking(rng: random.Random, k: int) -> ChoiceFunction:
    subsets = rng.sample(range(1, 1 << k), rng.randint(1, (1 << k) - 1))
    return ChoiceFunction.from_subset_ranking(subsets, k)


def failing_firm(i: int, k: int) -> ChoiceFunction:
    """Market ``i``'s rewritten firm, failing axiom ``i % 3``."""
    oracle = ORACLES[i % 3]
    rng = random.Random(i)
    while True:
        if i % 2 and oracle is not exhaustive_consistency:
            cf = draw_ranking(rng, k)
        else:
            cf = draw_table(rng, k, 0 if oracle is exhaustive_lad else rng.randint(1, 2))
        if not oracle(cf).passed:
            return cf


def axiom_digest(path: str) -> str:
    digest = hashlib.sha256()
    for command in ("validate", "verify"):
        for part in map(str, run_quietly([command, path])):
            data = part.encode()
            digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


GOLDEN = {
    "reference": "a0d8bb6d91f4403de8d8370d3e0063c8ad30403428078707033ab0172eb2ff21",
    "gen00": "04c4459ac68e2ec5197a2050aa391cb29d37fcd55edb2037628268d22dbcc64b",
    "gen01": "97e353a4e827d4fc8356d06946a447a09d367e2a897dac5cffc021f3ac7e2d84",
    "gen02": "a01d371d4acb01bbfc7245511fd6343d5d0072222f3b70c9bedb92eee144b0b6",
    "gen03": "64f186c5be479020756b9a19af9fb2968058d222a01a5ae9616fca5b8e9d01bc",
    "gen04": "adc77adee9f81eb8e9c6a8de29b736accac27f208babf69978ed99b64cb7229f",
    "gen05": "1384c4ca8821555cad9a0bb873db76309b175364da426bd45fe5f1c0f853d441",
    "gen06": "332ffbd43bd218ccb236293884046b6b0d73ec15477cc40daf255709a123b209",
    "gen07": "7e38087458d4dd0aef55c609446118950e377e4530ff9e61988216f1da086f17",
    "gen08": "3414a6ed60eaee1c63cfc0a1bf0ea07cd4cc77ddab7247f1f0b85cd5a56f4db7",
    "gen09": "3adac838de07ef3188e42332646c2a6426237094825a604a89367fc03798d271",
    "gen10": "1bd1aad58642c8e9100fdaaa00b30bda6920ccf047b5fcfa8310464587fa4b90",
    "gen11": "43fd348a7135e349cad9209189dc80a9e4da11a59ec0af0657fdc6561d76a2fb",
    "gen12": "adc77adee9f81eb8e9c6a8de29b736accac27f208babf69978ed99b64cb7229f",
    "gen13": "15138b424e6d9d415f68840c8fa50695e6d7bcc074e7b6be6c807e48b378256c",
    "gen14": "ced484fd0eea11f49d6965714f61faca6b7e9ffe7ad3cf719390777718c56d51",
    "gen15": "72942c8b72af66732aae0ee720bf7191dea86e9ef9260a05c22abb57ce36e03d",
    "gen16": "453e74c27b5da823c3a456fd32451ead886b127e197ecaedbbd7070018ecb082",
    "gen17": "fb054a46224890ff52169d1f945a9a1440ba2a8b5134a089e15fd583084926bb",
    "gen18": "0bec05fb63ef6316242c94a3f7316d56937503c47ebbe58b0aa17710e9233f22",
    "gen19": "42b2580fbf7d98129f2cac5b243b46c96958d781224b8ea9bb912bb99deafb37",
    "gen20": "6b24fc588dc7ee4f8548a7fc2e4431d2c8efba2a483677bde7c6109e4f726936",
    "gen21": "9c3aeb8f074c5e2a17fd92c9ba85cb3209d14b10d75e59b218eddb58fe700764",
    "gen22": "a8694ad293a9c8c9478693fe3aa95eb05e7a0f9d260554d19d20ed6ab44c453f",
    "gen23": "a06818d5948a51c902a19bb27d7af967ecf4462ec2db7e6af7ffb3cedf7699c0",
    "gen24": "26f547c97a578cf4512cdff443c010ed7117f4e06f7eb15aab6fea5c7730eb2c",
    "gen25": "3a7f98ff21209073c85e5f7bb958371606bc67d4f66a39c2df3dc98330a5025a",
    "gen26": "ddee09aa4cc3538169b814ee5c22f98791cf1397f0ef86728d82986eb9a0a8e0",
    "gen27": "1e8bccccf11da9dc2d6e8b725bc9f242d09d92216198be7e377d838169e4446c",
    "gen28": "8f7668a4f62b55016e05eab7a307e1033a0077cfe620fa692d6feaad6a78d0e4",
    "gen29": "8d596a2cb40d1660a10388b49a7d69da928d3291244fa64abceeda482a74c929",
    "gen30": "8f7668a4f62b55016e05eab7a307e1033a0077cfe620fa692d6feaad6a78d0e4",
    "gen31": "1a8411c7de3ecd2365b2c3bb218306f83fdfb88c271021b4baea1684154fd53b",
    "gen32": "354f6618ca67500da60c1493e1dcc446e0cebf97e43f04a0da44e1c594ed36d2",
    "gen33": "3c97577356814ac4352daa520442aaa3b4d14d3ba59870704eed0ddc8b23fe47",
    "gen34": "1f726fb0f3f6b3dae49d6441c403ac6e8e37bc43d80d7a344a35ae8165459aca",
    "gen35": "77cd7eb606e1e374095e2202872583bcb23654d0115f35a683aa18d69e0735c6",
    "gen36": "647934be92cfc91e9ceba8ff51919023b6ef8f6e831dfb1aee471f3733f3b736",
    "gen37": "8f63c3d64b4d4ea2817512e424bf3d1d10e5622285e0b6c897c7771e532563d9",
    "gen38": "ea702d530a8726839b6e2e29343617a85ddcfac560c1aa5bd8afc2ec6e10e77f",
    "gen39": "ae8d86967230f483233b8176872c3e2cda8a7b9204527629c62ce8402e7776b7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_validate_and_verify_are_byte_stable(name, tmp_path):
    if name == "reference":
        path = REFERENCE_PATH
    else:
        i = int(name[3:])
        market = random_market(gen_params(i))
        market = with_first_firm(market, failing_firm(i, len(market.workers)))
        path = tmp_path / "market.json"
        path.write_text(dump_market(MarketDocument(market)))
        path = str(path)
    assert axiom_digest(path) == GOLDEN[name]
