"""Canonical protocol fingerprints: content addresses for analyses.

Analyses in this package are pure functions of a protocol's *structure*
``(Q, T, L, X, I, O)`` plus their own numeric parameters — the protocol
``name`` and the particular spelling of its states never influence a
Karp–Miller tree or a Hilbert basis (only how they are *presented*).
The cache therefore addresses results by two digests:

* :func:`protocol_fingerprint` — SHA-256 over a **normal form**
  invariant under state renaming and transition reordering.  Two
  isomorphic protocols share a fingerprint; the golden test pins the
  fingerprints of the shipped families so accidental normal-form
  drift (which would silently orphan every existing cache entry)
  fails loudly.
* :func:`presentation_digest` — SHA-256 over the concrete state
  order, state names and transition order.  Cached *payloads* are
  presentation-dependent (dense count tuples follow the state order;
  serialized transitions carry state names), so an entry is shared
  only between calls with identical presentation.  The fingerprint
  still travels in every entry as the protocol's identity.

The normal form is the canonical signature of :mod:`repro.symmetry`:
colour refinement followed by a minimum-signature search over the
orderings that respect the colour classes.  When the classes leave
too many orderings to search (``canonical_form`` returns ``None``),
the fingerprint degrades to a presentation-based one — still a valid
cache address, merely not shared across renamings.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Hashable, Optional

from ..core.errors import ReproError
from ..core.protocol import PopulationProtocol
from ..symmetry import search

__all__ = [
    "NORMAL_FORM_VERSION",
    "UncacheableProtocolError",
    "canonical_form",
    "protocol_fingerprint",
    "presentation_digest",
    "state_name_map",
]

NORMAL_FORM_VERSION = 1
"""Bump when the normal form below changes shape.

Bumping orphans every existing fingerprint (and hence every cache
entry); the golden test in ``tests/test_cache.py`` pins concrete
fingerprints so an accidental change fails loudly.  The documented
procedure for a deliberate change lives in docs/tutorial.md §12.
"""


class UncacheableProtocolError(ReproError):
    """The protocol cannot be serialised unambiguously (e.g. two states
    or two input variables share a ``str()`` spelling); callers skip
    the cache and compute directly."""


def canonical_form(protocol: PopulationProtocol) -> Optional[Dict[str, Any]]:
    """The renaming/reordering-invariant normal form, or ``None``.

    ``None`` means the colour classes leave more than
    :data:`repro.symmetry.MAX_CANDIDATES` orderings to search — the
    caller falls back to a presentation-based fingerprint rather than
    blowing up.
    """
    found = search(protocol)
    if found is None:
        return None
    outputs, leaders, inputs, transitions = found.canonical
    return {
        "n": len(protocol.states),
        "outputs": list(outputs),
        "leaders": list(leaders),
        "inputs": [[variable, index] for variable, index in inputs],
        "transitions": [[list(pre), list(post)] for pre, post in transitions],
    }


def _digest(tag: str, payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{tag}:{blob}".encode("utf-8")).hexdigest()


def presentation_form(protocol: PopulationProtocol) -> Dict[str, Any]:
    """The concrete presentation (state order/names, transition order).

    Excludes the protocol ``name`` — no analysis result depends on it.
    Raises :class:`UncacheableProtocolError` when states or variables
    are not distinguishable by ``str()`` (payloads serialise states by
    name, so a collision would make decoding ambiguous).
    """
    names = [str(s) for s in protocol.states]
    if len(set(names)) != len(names):
        raise UncacheableProtocolError(
            "two states share a str() spelling; protocol is not cacheable"
        )
    variables = [str(v) for v in protocol.input_mapping]
    if len(set(variables)) != len(variables):
        raise UncacheableProtocolError(
            "two input variables share a str() spelling; protocol is not cacheable"
        )
    index = {s: i for i, s in enumerate(protocol.states)}
    return {
        "states": names,
        "transitions": [
            [index[t.p], index[t.q], index[t.p2], index[t.q2]]
            for t in protocol.transitions
        ],
        "leaders": [[index[s], c] for s, c in sorted(protocol.leaders.items(), key=lambda item: index[item[0]])],
        "inputs": sorted([str(v), index[s]] for v, s in protocol.input_mapping.items()),
        "outputs": [protocol.output[s] for s in protocol.states],
    }


def presentation_digest(protocol: PopulationProtocol) -> str:
    """SHA-256 hex digest of :func:`presentation_form` (memoised)."""
    cached = getattr(protocol, "_presentation_digest_cache", None)
    if cached is None:
        cached = _digest("repro-protocol-presentation", presentation_form(protocol))
        object.__setattr__(protocol, "_presentation_digest_cache", cached)
    return cached


def protocol_fingerprint(protocol: PopulationProtocol) -> str:
    """The content address: SHA-256 hex digest of the normal form.

    Isomorphic protocols (equal up to state renaming; transition order
    never matters) share a fingerprint, except for the rare
    search-limit fallback documented on :func:`canonical_form`.
    """
    cached = getattr(protocol, "_fingerprint_cache", None)
    if cached is not None:
        return cached
    form = canonical_form(protocol)
    if form is None:
        payload = {
            "v": NORMAL_FORM_VERSION,
            "normal_form": "presentation",
            "form": presentation_form(protocol),
        }
    else:
        payload = {"v": NORMAL_FORM_VERSION, "normal_form": "canonical", "form": form}
    digest = _digest("repro-protocol-nf", payload)
    object.__setattr__(protocol, "_fingerprint_cache", digest)
    return digest


def state_name_map(protocol: PopulationProtocol) -> Dict[str, Hashable]:
    """``str(state) -> state`` for decoding serialised payloads."""
    mapping = {str(s): s for s in protocol.states}
    if len(mapping) != len(protocol.states):
        raise UncacheableProtocolError(
            "two states share a str() spelling; protocol is not cacheable"
        )
    return mapping
