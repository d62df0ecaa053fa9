"""Model surgery with certificate emission.

Each transform returns the new model plus, when the backing theory applies,
a certificate recording the claim and the hypothesis checklist that was
verified.  Certificates are data, not booleans, so reports can show why a
claim is proof-grade.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphprops, identcore
from .identcore import HypothesesNotMet
from .model import MAX_VERTICES, CompartmentalModel, ModelError, VertexOutOfRange, is_int_list, make_model


class KeepNotSubsetOfLeak(ModelError):
    pass


class AlreadyLeak(ModelError):
    pass


class AnchorMissing(ModelError):
    pass


@dataclass(frozen=True)
class TheoremCertificate:
    claim: str
    hypotheses: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {"claim": self.claim, "hypotheses": dict(self.hypotheses)}


def remove_leaks(
    model: CompartmentalModel, keep, seed: int = 0
) -> tuple[CompartmentalModel, TheoremCertificate | None]:
    """Restrict the leak set to ``keep``.

    When the source model has leaks everywhere, reaches the expected
    dimension, and ``keep`` still covers every input/output compartment, the
    removal provably preserves the coefficient-map dimension, and the result
    is locally identifiable when keep is exactly the input/output set; this
    is recorded as a certificate.  Any other removal is a plain transform
    whose identifiability must be decided by rank analysis (placement
    matters: equal-size leak sets can differ in identifiability).
    """
    keep = frozenset(keep)
    if not keep <= model.leaks:
        raise KeepNotSubsetOfLeak(f"keep set {sorted(keep)} is not a subset of the leak set")
    new_model = model.with_leaks(keep)
    cert = None
    full = model.leaks == frozenset(model.vertices)
    if full and model.in_union_out <= keep:
        tier = identcore.bound_tier(model)
        if tier is not None:
            result = identcore.expected_dimension_test(model, seed)
            if result.equals_bound:
                bound = result.bound
                claim = f"leak removal preserves coefficient-map dimension {bound}"
                if keep == model.in_union_out:
                    claim += "; with leaks exactly on input/output compartments the model is locally identifiable"
                cert = TheoremCertificate(
                    claim=claim,
                    hypotheses=(
                        ("full leak set", "yes"),
                        ("connectivity tier", tier),
                        ("rank equals |E|+|In u Out|", f"{result.rank} == {bound}"),
                        ("keep covers inputs and outputs", "yes"),
                    ),
                )
    return new_model, cert


def add_leak(
    model: CompartmentalModel, k: int, seed: int = 0
) -> tuple[CompartmentalModel, TheoremCertificate | None]:
    """Add a leak at vertex k.

    When the source model has exactly |In u Out| leaks and already attains
    coefficient-map dimension |E|+|In u Out| (under a certifying connectivity
    tier), the enlarged model keeps that dimension.
    """
    if k in model.leaks:
        raise AlreadyLeak(f"vertex {k} already has a leak")
    new_model = model.with_leaks(model.leaks | {k})
    cert = None
    if len(model.leaks) == len(model.in_union_out):
        tier = identcore.bound_tier(model)
        if tier is not None:
            bound = len(model.edges) + len(model.in_union_out)
            rank, _ = identcore.jacobian_rank(model, "explicit", seed)
            if rank == bound:
                cert = TheoremCertificate(
                    claim=f"leak addition preserves coefficient-map dimension {bound}",
                    hypotheses=(
                        ("leak count equals |In u Out|", str(len(model.leaks))),
                        ("connectivity tier", tier),
                        ("rank equals |E|+|In u Out|", f"{rank} == {bound}"),
                    ),
                )
    return new_model, cert


def attach_path(
    model: CompartmentalModel, k: int, l: int, s: int, seed: int = 0
) -> tuple[CompartmentalModel, TheoremCertificate | None]:
    """Append a directed path of s new leaking vertices from anchor k back
    to anchor l: edges k -> n+1 -> ... -> n+s -> l.

    New vertices are numbered n+1..n+s in path order, so constructions are
    byte-for-byte reproducible.  When the source model has one compartment
    as both input and output, is strongly connected, leaks everywhere and
    reaches expected dimension, the attachment provably preserves expected
    dimension, and this is recorded as a certificate.
    """
    if s < 1:
        raise ModelError(f"path length s must be >= 1, got {s}")
    for v in (k, l):
        if not 1 <= v <= model.n:
            raise AnchorMissing(f"anchor vertex {v} does not exist")
    n = model.n
    if n + s > MAX_VERTICES:  # before any vertex list is built
        raise VertexOutOfRange(f"n must be <= {MAX_VERTICES}, got {n + s}")
    new_vertices = list(range(n + 1, n + s + 1))
    chain = [(k, new_vertices[0])]
    chain += [(new_vertices[t], new_vertices[t + 1]) for t in range(s - 1)]
    chain.append((new_vertices[-1], l))
    new_model = make_model(
        n + s,
        tuple(model.edges) + tuple(chain),
        model.inputs,
        model.outputs,
        set(model.leaks) | set(new_vertices),
    )
    cert = None
    cycle_context = (
        model.inputs == model.outputs
        and len(model.inputs) == 1
        and model.leaks == frozenset(model.vertices)
        and graphprops.is_strongly_connected(model)
    )
    if cycle_context:
        before = identcore.expected_dimension_test(model, seed)
        if before.equals_bound:
            cert = TheoremCertificate(
                claim=(
                    f"path attachment preserves expected dimension: "
                    f"{len(new_model.edges)}+1 after adding {s} vertices"
                ),
                hypotheses=(
                    ("single identical input/output", "yes"),
                    ("strongly connected", "yes"),
                    ("full leak set", "yes"),
                    ("rank before attachment", f"{before.rank} == {before.bound}"),
                ),
            )
    return new_model, cert


@dataclass(frozen=True)
class ConstructionScript:
    """Sequence of path attachments from the one-compartment seed, then a
    final restriction to a single leak."""

    steps: tuple[tuple[int, int, int], ...]  # (anchor_from, anchor_to, new_vertex_count)
    final_leak: int

    def to_dict(self) -> dict:
        return {"steps": [list(s) for s in self.steps], "final_leak": self.final_leak}

    @staticmethod
    def from_dict(doc: dict) -> "ConstructionScript":
        if not isinstance(doc, dict) or set(doc) != {"steps", "final_leak"}:
            raise ModelError("construction script must be a JSON object with keys steps and final_leak")
        steps, final_leak = doc["steps"], doc["final_leak"]
        if type(steps) is not list or not all(is_int_list(step, 3) for step in steps):
            raise ModelError("steps must be a list of [k, l, s] integer triples")
        if type(final_leak) is not int:
            raise ModelError(f"final_leak must be an integer, got {final_leak!r}")
        return ConstructionScript(steps=tuple(tuple(step) for step in steps), final_leak=final_leak)


def run_construction(
    script: ConstructionScript, seed: int = 0
) -> tuple[CompartmentalModel, tuple[TheoremCertificate, ...]]:
    """Build an identifiable one-leak model with input and output in
    compartment 1: grow loops by path attachment (each step verified to keep
    expected dimension), then keep only the final leak."""
    model = make_model(1, (), {1}, {1}, {1})
    certs: list[TheoremCertificate] = []
    for step_no, (k, l, s) in enumerate(script.steps, start=1):
        model, cert = attach_path(model, k, l, s, seed=seed)
        if cert is None:
            raise HypothesesNotMet(f"step {step_no} left the construction context")
        certs.append(cert)
    grown = model
    after = identcore.expected_dimension_test(grown, seed)
    if not after.equals_bound:
        raise AssertionError(
            f"constructed graph missed expected dimension: rank {after.rank} < {after.bound}"
        )
    final, _ = remove_leaks(grown, {script.final_leak}, seed)
    report = identcore.classify_identifiability(final, seed)
    certs.append(
        TheoremCertificate(
            claim="full-cycle-space model restricted to one leak is locally identifiable",
            hypotheses=(
                ("expected dimension before leak removal", f"{after.rank} == {after.bound}"),
                ("single leak", str(script.final_leak)),
                ("verified rank", f"{report.jacobian_rank} == {report.param_count}"),
            ),
        )
    )
    if report.verdict != "locally-identifiable":
        raise AssertionError("constructed single-leak model failed the identifiability check")
    return final, tuple(certs)
