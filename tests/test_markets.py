"""The many-to-one market constructor and what it refuses."""

import pytest

from matchdecomp import (
    ChoiceFunction,
    LinearOrder,
    ManyToOneMarket,
    MarketValidationError,
)


def one_order(k: int) -> ChoiceFunction:
    return ChoiceFunction.from_orders((LinearOrder(tuple(range(k))),), k)


def build(workers=("a", "b"), firms=("A",), cfs=None, prefs=((0,), (0,))):
    cfs = (one_order(len(workers)),) * len(firms) if cfs is None else cfs
    return ManyToOneMarket(workers, firms, cfs, prefs)


class TestRefusals:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"workers": ("a", "a")}, "duplicate worker labels"),
            (
                {"firms": ("A", "A"), "prefs": ((0,), (1,))},
                "duplicate firm labels",
            ),
            ({"cfs": ()}, "1 firms but 0 choice functions"),
            (
                {"cfs": (one_order(3),)},
                "choice function of A is over 3 workers, market has 2",
            ),
            ({"prefs": ((0,),)}, "2 workers but 1 preference lists"),
            ({"prefs": ((0,), (0, 0))}, "duplicate firm in preferences of b"),
            ({"prefs": ((1,), (0,))}, "unknown firm in preferences of a"),
            ({"prefs": ((0,), (-1,))}, "unknown firm in preferences of b"),
        ],
        ids=[
            "worker-twice",
            "firm-twice",
            "choice-count",
            "universe",
            "prefs-count",
            "prefs-firm-twice",
            "prefs-unknown",
            "prefs-negative",
        ],
    )
    def test_each_refusal_reads_exactly(self, fields, message):
        with pytest.raises(MarketValidationError) as caught:
            build(**fields)
        assert str(caught.value) == message
