"""Input validation helpers shared across the library.

These helpers normalise user input to canonical numpy representations and
raise :class:`repro.exceptions.ValidationError` with actionable messages.
They are deliberately strict: the watermarking protocol manipulates models
whose exact behaviour matters legally, so silent coercion is avoided.
"""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "check_X",
    "check_X_y",
    "check_sample_weight",
    "check_random_state",
    "check_binary_labels",
    "check_count",
    "spawn_seed_sequences",
]


def check_X(X, *, name: str = "X") -> np.ndarray:
    """Validate a feature matrix and return it as a C-contiguous float64 array.

    Parameters
    ----------
    X:
        Anything convertible to a 2-D numeric array of shape
        ``(n_samples, n_features)``.
    name:
        Name used in error messages.
    """
    try:
        arr = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numeric, got {type(X).__name__}") from exc
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValidationError(f"{name} must contain at least one sample")
    if arr.shape[1] == 0:
        raise ValidationError(f"{name} must contain at least one feature")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix together with its label vector."""
    arr_x = check_X(X)
    arr_y = np.asarray(y)
    if arr_y.ndim != 1:
        raise ValidationError(f"y must be 1-dimensional, got shape {arr_y.shape}")
    if arr_y.shape[0] != arr_x.shape[0]:
        raise ValidationError(
            f"X and y disagree on the number of samples: {arr_x.shape[0]} != {arr_y.shape[0]}"
        )
    return arr_x, arr_y


def check_sample_weight(sample_weight, n_samples: int) -> np.ndarray:
    """Validate sample weights, defaulting to uniform weights of 1.0."""
    if sample_weight is None:
        return np.ones(n_samples, dtype=np.float64)
    arr = np.asarray(sample_weight, dtype=np.float64)
    if arr.shape != (n_samples,):
        raise ValidationError(
            f"sample_weight must have shape ({n_samples},), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError("sample_weight contains NaN or infinite values")
    if (arr < 0).any():
        raise ValidationError("sample_weight must be non-negative")
    if arr.sum() <= 0:
        raise ValidationError("sample_weight must have positive total mass")
    return arr


def check_count(value, name: str, minimum: int = 1) -> None:
    """Validate a count ``>= minimum``: an integer (numpy integers
    included), and never a ``bool``, a float or a NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can share a stream).
    """
    if seed is None:
        # repro: allow[RPR001] seed=None is the caller explicitly requesting fresh entropy; this funnel is the one sanctioned place to mint it
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, numbers.Integral):
        return np.random.default_rng(int(seed))
    raise ValidationError(
        f"random_state must be None, an int or a numpy Generator, got {type(seed).__name__}"
    )


def spawn_seed_sequences(random_state, n: int) -> list[np.random.SeedSequence]:
    """Derive ``n`` independent child seed sequences from ``random_state``.

    This is the determinism backbone of parallel training: every tree
    slot receives its own :class:`numpy.random.SeedSequence` up front,
    so its random stream is independent of fitting order (serial,
    process pool, or selective refit) while remaining a pure function of
    the caller's seed.

    Accepts the same inputs as :func:`check_random_state`, plus a
    :class:`numpy.random.SeedSequence` used as the parent directly.  A
    shared :class:`~numpy.random.Generator` contributes a single draw of
    entropy (advancing it once), keeping pipelines that thread one
    generator through many components reproducible.
    """
    if n < 0:
        raise ValidationError(f"cannot spawn {n} seed sequences")
    if isinstance(random_state, np.random.SeedSequence):
        parent = random_state
    elif random_state is None:
        parent = np.random.SeedSequence()
    elif isinstance(random_state, numbers.Integral):
        parent = np.random.SeedSequence(int(random_state))
    elif isinstance(random_state, np.random.Generator):
        parent = np.random.SeedSequence(int(random_state.integers(2**63)))
    else:
        raise ValidationError(
            f"random_state must be None, an int, a numpy Generator or a "
            f"SeedSequence, got {type(random_state).__name__}"
        )
    return parent.spawn(n)


def check_binary_labels(y) -> np.ndarray:
    """Validate that labels form a binary {-1, +1} problem.

    The watermarking scheme of the paper is defined for binary
    classification with labels ``-1`` and ``+1`` (multi-class tasks are
    handled by decomposition into binary ones, see
    :mod:`repro.ensemble.multiclass`).
    """
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValidationError(f"y must be 1-dimensional, got shape {arr.shape}")
    labels = set(np.unique(arr).tolist())
    if not labels <= {-1, 1}:
        raise ValidationError(
            f"binary labels must be in {{-1, +1}}, got {sorted(labels)}"
        )
    if len(labels) < 2:
        raise ValidationError("y must contain both classes -1 and +1")
    return arr.astype(np.int64)
