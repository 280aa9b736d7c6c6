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
    character, so its multiplicity is 1 on every board of degree 6."""
    hook = vanishing.predict_hook

    def claim(lam):
        if tuple(lam) == (6,):
            return vanishing.Prediction((6,), vanishing.Verdict.ZERO, vanishing.Rule.HOOK)
        return hook(lam)

    monkeypatch.setattr(vanishing, "predict_hook", claim)
