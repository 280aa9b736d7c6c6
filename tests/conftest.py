import pytest
from hypothesis import settings

from foulkes import vanishing

# exact arithmetic has wildly uneven per-example cost; wall-clock deadlines
# only produce flaky failures here
settings.register_profile("exact", deadline=None, max_examples=50)
settings.load_profile("exact")


@pytest.fixture
def false_hook_claim(monkeypatch):
    """The hook rule wrongly claims zero on (6,), which holds the trivial
    character, so its multiplicity is 1 on every board of degree 6. The claim
    is planted in vanishing._rules, which every rule check reads."""
    rules = vanishing._rules

    def claim(lam, *args):
        out = rules(lam, *args)
        if tuple(lam) == (6,):
            out[1] = (vanishing.Rule.HOOK, vanishing.Verdict.ZERO, 0)
        return out

    monkeypatch.setattr(vanishing, "_rules", claim)
