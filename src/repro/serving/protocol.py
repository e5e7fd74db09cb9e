"""The NED service wire protocol: versioned JSON over the plan objects.

The session's frozen plan dataclasses (:class:`~repro.engine.session.KnnPlan`
and friends) *are* the wire schema: this module encodes them to plain JSON
objects and decodes them back, strictly.  Three contracts:

* **One canonical table.**  Every wire literal — plan kinds, field names,
  error kinds, result kinds — is defined here exactly once
  (:data:`WIRE_PLAN_KINDS`, :data:`WIRE_FIELDS`, :data:`WIRE_ERROR_KINDS`,
  :data:`WIRE_RESULT_KINDS`).  Outside this module the serving package may
  not spell a wire literal as a string; the ``ned-lint`` rule
  ``NED-WIRE01`` enforces it, so the schema cannot fork silently.
* **Versioned and strict.**  Envelopes carry ``format`` +
  ``version``; an unknown version, an unknown plan kind, a missing or
  unexpected field, or a non-encodable value raises a typed
  :class:`~repro.exceptions.WireFormatError` — the decoder refuses to
  guess rather than execute a half-understood request.
* **Typed errors travel.**  Service failures are encoded as
  ``{"kind": ..., "message": ...}`` objects and decoded back into the same
  exception types on the client, so ``OverloadError`` backpressure and
  ``DeadlineError`` expiry keep their meaning across the process boundary.

Values are bit-faithful: floats round-trip exactly through ``repr`` (the
:mod:`json` default), including the ``inf`` a bound-pruned matrix may carry
(Python's encoder/decoder handle ``Infinity`` symmetrically).  Probes travel
as parent arrays plus the node id and are re-summarised deterministically on
the server, so a decoded probe is ``==`` to the one the client built.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.engine.matrix import MODES as MATRIX_MODES
from repro.engine.search import INDEX_BACKENDS, SEARCH_MODES
from repro.engine.session import (
    CrossMatrixPlan,
    KnnPlan,
    PairwiseMatrixPlan,
    Plan,
    RangePlan,
    TopLPlan,
)
from repro.engine.stats import EngineStats
from repro.engine.tree_store import StoredTree, TreeStore, summarize_tree
from repro.exceptions import (
    DeadlineError,
    DistanceError,
    GraphError,
    OverloadError,
    ReproError,
    ResilienceError,
    TreeError,
    WireFormatError,
)
from repro.trees.tree import Tree

#: Wire format marker carried by every envelope.
WIRE_FORMAT = "repro-ned-wire"

#: Current schema version; decoders reject anything else, typed.
SCHEMA_VERSION = 1

#: Schema versions this decoder accepts.
SUPPORTED_VERSIONS = (1,)


# --------------------------------------------------------------- canonical
# The one table every wire literal comes from (ned-lint rule NED-WIRE01:
# these strings may not be spelled outside this module within the serving
# package — reference the constants instead).

#: HTTP endpoints (versioned alongside the schema).
PATH_PLANS = "/v1/plans"
PATH_TELEMETRY = "/v1/telemetry"
PATH_STATUS = "/v1/status"

#: Plan kinds on the wire, one per session plan class.
KIND_KNN = "knn"
KIND_RANGE = "range"
KIND_TOPL = "topl"
KIND_MATRIX_PAIRWISE = "matrix-pairwise"
KIND_MATRIX_CROSS = "matrix-cross"
WIRE_PLAN_KINDS = (
    KIND_KNN,
    KIND_RANGE,
    KIND_TOPL,
    KIND_MATRIX_PAIRWISE,
    KIND_MATRIX_CROSS,
)

#: Result kinds on the wire.
RESULT_POINT = "point"
RESULT_MATRIX = "matrix"
WIRE_RESULT_KINDS = (RESULT_POINT, RESULT_MATRIX)

#: Field names on the wire (requests, responses, probes, errors).
F_FORMAT = "format"
F_VERSION = "version"
F_TENANT = "tenant"
F_PLANS = "plans"
F_RESULTS = "results"
F_KIND = "kind"
F_OK = "ok"
F_VALUE = "value"
F_ERROR = "error"
F_MESSAGE = "message"
F_PROBE = "probe"
F_NODE = "node"
F_PARENTS = "parents"
F_GRAPH_NODES = "graph_nodes"
F_COUNT = "count"
F_RADIUS = "radius"
F_TOP_L = "top_l"
F_MODE = "mode"
F_INDEX = "index"
F_THRESHOLD = "threshold"
F_CHUNK_SIZE = "chunk_size"
F_COL_STORE = "col_store"
F_K = "k"
F_ENTRIES = "entries"
F_ROW_NODES = "row_nodes"
F_COL_NODES = "col_nodes"
F_VALUES = "values"
F_EXECUTOR_USED = "executor_used"
F_TENANTS = "tenants"
F_MERGED = "merged"
F_STATUS = "status"
F_WORKERS = "workers"
F_QUEUE_DEPTH = "queue_depth"
F_TICK_LIMIT = "tick_limit"

#: Every wire field name, for the linter's cross-check.
WIRE_FIELDS = frozenset(
    {
        F_FORMAT, F_VERSION, F_TENANT, F_PLANS, F_RESULTS, F_KIND, F_OK,
        F_VALUE, F_ERROR, F_MESSAGE, F_PROBE, F_NODE, F_PARENTS,
        F_GRAPH_NODES, F_COUNT, F_RADIUS, F_TOP_L, F_MODE, F_INDEX,
        F_THRESHOLD, F_CHUNK_SIZE, F_COL_STORE, F_K, F_ENTRIES, F_ROW_NODES,
        F_COL_NODES, F_VALUES, F_EXECUTOR_USED, F_TENANTS, F_MERGED,
        F_STATUS, F_WORKERS, F_QUEUE_DEPTH, F_TICK_LIMIT,
    }
)

#: Typed error kinds on the wire, most specific first — encoding walks this
#: list and uses the first match, so subclasses must precede their bases.
ERROR_OVERLOAD = "overload"
ERROR_DEADLINE = "deadline"
ERROR_WIRE = "wire"
ERROR_DISTANCE = "distance"
ERROR_GRAPH = "graph"
ERROR_TREE = "tree"
ERROR_RESILIENCE = "resilience"
ERROR_REPRO = "repro"
ERROR_INTERNAL = "internal"
WIRE_ERROR_KINDS: Tuple[Tuple[str, Type[BaseException]], ...] = (
    (ERROR_OVERLOAD, OverloadError),
    (ERROR_DEADLINE, DeadlineError),
    (ERROR_WIRE, WireFormatError),
    (ERROR_DISTANCE, DistanceError),
    (ERROR_GRAPH, GraphError),
    (ERROR_TREE, TreeError),
    (ERROR_RESILIENCE, ResilienceError),
    (ERROR_REPRO, ReproError),
    (ERROR_INTERNAL, Exception),
)

#: The whole wire vocabulary in one frozenset — what ``ned-lint`` rule
#: ``NED-WIRE01`` cross-checks serving-package string literals against: a
#: string equal to any of these spelled outside this module (as a dict key,
#: subscript, ``.get`` argument or comparison operand) is a hand-written
#: duplicate of the schema and flagged.
WIRE_VOCABULARY = frozenset(
    WIRE_FIELDS
    | set(WIRE_PLAN_KINDS)
    | set(WIRE_RESULT_KINDS)
    | {
        ERROR_OVERLOAD, ERROR_DEADLINE, ERROR_WIRE, ERROR_DISTANCE,
        ERROR_GRAPH, ERROR_TREE, ERROR_RESILIENCE, ERROR_REPRO,
        ERROR_INTERNAL,
    }
    | {WIRE_FORMAT, PATH_PLANS, PATH_TELEMETRY, PATH_STATUS}
)

_ERROR_DECODERS: Dict[str, Type[BaseException]] = {
    ERROR_OVERLOAD: OverloadError,
    ERROR_DEADLINE: DeadlineError,
    ERROR_WIRE: WireFormatError,
    ERROR_DISTANCE: DistanceError,
    ERROR_GRAPH: GraphError,
    ERROR_TREE: TreeError,
    ERROR_RESILIENCE: ResilienceError,
    ERROR_REPRO: ReproError,
    ERROR_INTERNAL: ReproError,
}

_PLAN_TO_KIND: Dict[type, str] = {
    KnnPlan: KIND_KNN,
    RangePlan: KIND_RANGE,
    TopLPlan: KIND_TOPL,
    PairwiseMatrixPlan: KIND_MATRIX_PAIRWISE,
    CrossMatrixPlan: KIND_MATRIX_CROSS,
}

#: Exactly the keys each plan kind may carry on the wire (strict decode).
_PLAN_FIELDS: Dict[str, frozenset] = {
    KIND_KNN: frozenset({F_KIND, F_PROBE, F_COUNT, F_MODE, F_INDEX}),
    KIND_RANGE: frozenset({F_KIND, F_PROBE, F_RADIUS, F_MODE, F_INDEX}),
    KIND_TOPL: frozenset({F_KIND, F_PROBE, F_TOP_L, F_MODE}),
    KIND_MATRIX_PAIRWISE: frozenset(
        {F_KIND, F_MODE, F_THRESHOLD, F_CHUNK_SIZE}
    ),
    KIND_MATRIX_CROSS: frozenset(
        {F_KIND, F_COL_STORE, F_MODE, F_THRESHOLD, F_CHUNK_SIZE}
    ),
}

_PROBE_FIELDS = frozenset({F_NODE, F_PARENTS, F_GRAPH_NODES})


# ------------------------------------------------------------------ helpers
def _require_mapping(obj: Any, what: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise WireFormatError(
            f"{what} must be a JSON object, got {type(obj).__name__}"
        )
    return obj

def _check_fields(obj: Dict[str, Any], allowed: frozenset, what: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise WireFormatError(
            f"{what} carries unknown field(s) {unknown}; this decoder "
            f"(schema version {SCHEMA_VERSION}) refuses to guess"
        )

def _wire_node(node: Any, what: str) -> Any:
    """Validate a node id as wire-encodable (JSON-scalar, round-trip safe)."""
    if isinstance(node, bool) or not isinstance(node, (str, int)):
        raise WireFormatError(
            f"{what} {node!r} is not wire-encodable; service stores must "
            f"use str or int node ids"
        )
    return node

def _optional_str(obj: Dict[str, Any], field: str, what: str) -> Optional[str]:
    value = obj.get(field)
    if value is not None and not isinstance(value, str):
        raise WireFormatError(f"{what}.{field} must be a string or null")
    return value

def _optional_choice(
    obj: Dict[str, Any], field: str, what: str, choices: Sequence[str]
) -> Optional[str]:
    value = _optional_str(obj, field, what)
    if value is not None and value not in choices:
        raise WireFormatError(
            f"{what}.{field} {value!r} is not one of {list(choices)}"
        )
    return value

def _optional_float(obj: Dict[str, Any], field: str, what: str) -> Optional[float]:
    value = obj.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(f"{what}.{field} must be a number or null")
    return float(value)

def _required_int(obj: Dict[str, Any], field: str, what: str) -> int:
    value = obj.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(f"{what}.{field} must be an integer")
    return value


# -------------------------------------------------------------------- probes
def encode_probe(probe: StoredTree) -> Dict[str, Any]:
    """Encode a probe as its node id + parent array (+ graph attachments)."""
    graph_nodes = getattr(probe.tree, "graph_nodes", None)
    if graph_nodes is not None:
        graph_nodes = [_wire_node(node, "probe graph node") for node in graph_nodes]
    return {
        F_NODE: _wire_node(probe.node, "probe node"),
        F_PARENTS: list(probe.tree.parent_array()),
        F_GRAPH_NODES: graph_nodes,
    }


def decode_probe(obj: Any, k: int) -> StoredTree:
    """Decode a probe and re-summarise it deterministically for ``k``.

    The summaries (level sizes, signature, degree profiles) are pure
    functions of the parent array, so recomputing them server-side yields a
    :class:`StoredTree` that is ``==`` to the client's.
    """
    record = _require_mapping(obj, "wire probe")
    _check_fields(record, _PROBE_FIELDS, "wire probe")
    if F_NODE not in record or F_PARENTS not in record:
        raise WireFormatError("wire probe needs both its node id and parents")
    node = _wire_node(record[F_NODE], "probe node")
    parents = record[F_PARENTS]
    if not isinstance(parents, list) or any(
        isinstance(p, bool) or not isinstance(p, int) for p in parents
    ):
        raise WireFormatError("wire probe parents must be a list of integers")
    try:
        tree = Tree(parents)
    except (TreeError, ValueError) as error:
        raise WireFormatError(f"wire probe parents are not a valid tree: {error}") from error
    graph_nodes = record.get(F_GRAPH_NODES)
    if graph_nodes is not None:
        if not isinstance(graph_nodes, list):
            raise WireFormatError("wire probe graph_nodes must be a list or null")
        tree.graph_nodes = tuple(graph_nodes)  # type: ignore[attr-defined]
    try:
        return summarize_tree(node, tree, k)
    except (GraphError, TreeError) as error:
        raise WireFormatError(
            f"wire probe cannot be summarised for k={k}: {error}"
        ) from error


def _encode_store(store: Any) -> Dict[str, Any]:
    return {
        F_K: store.k,
        F_ENTRIES: [encode_probe(entry) for entry in store.entries()],
    }


def _decode_store(obj: Any) -> TreeStore:
    record = _require_mapping(obj, "wire col_store")
    _check_fields(record, frozenset({F_K, F_ENTRIES}), "wire col_store")
    k = _required_int(record, F_K, "wire col_store")
    entries = record.get(F_ENTRIES)
    if not isinstance(entries, list):
        raise WireFormatError("wire col_store entries must be a list")
    try:
        return TreeStore(k, [decode_probe(entry, k) for entry in entries])
    except GraphError as error:
        raise WireFormatError(f"wire col_store is not a valid store: {error}") from error


# --------------------------------------------------------------------- plans
def plan_kind(plan: Plan) -> str:
    """The canonical wire kind of a plan instance (typed error if unknown)."""
    kind = _PLAN_TO_KIND.get(type(plan))
    if kind is None:
        raise WireFormatError(
            f"plan type {type(plan).__name__} has no wire encoding"
        )
    return kind


def encode_plan(plan: Plan) -> Dict[str, Any]:
    """Encode one session plan as its wire object.

    Matrix plans' ``executor`` is a server-side policy (possibly a live
    callable) and does not travel; the server substitutes its own default.
    """
    kind = plan_kind(plan)
    if isinstance(plan, KnnPlan):
        return {
            F_KIND: kind,
            F_PROBE: encode_probe(plan.probe),
            F_COUNT: plan.count,
            F_MODE: plan.mode,
            F_INDEX: plan.index,
        }
    if isinstance(plan, RangePlan):
        return {
            F_KIND: kind,
            F_PROBE: encode_probe(plan.probe),
            F_RADIUS: float(plan.radius),
            F_MODE: plan.mode,
            F_INDEX: plan.index,
        }
    if isinstance(plan, TopLPlan):
        return {
            F_KIND: kind,
            F_PROBE: encode_probe(plan.probe),
            F_TOP_L: plan.top_l,
            F_MODE: plan.mode,
        }
    if isinstance(plan, PairwiseMatrixPlan):
        return {
            F_KIND: kind,
            F_MODE: plan.mode,
            F_THRESHOLD: plan.threshold,
            F_CHUNK_SIZE: plan.chunk_size,
        }
    return {
        F_KIND: kind,
        F_COL_STORE: _encode_store(plan.col_store),
        F_MODE: plan.mode,
        F_THRESHOLD: plan.threshold,
        F_CHUNK_SIZE: plan.chunk_size,
    }


def decode_plan(obj: Any, k: int) -> Plan:
    """Decode one wire object into a session plan, strictly.

    ``k`` is the serving store's tree depth: probes are re-summarised
    against it, so a probe extracted with a different ``k`` fails typed
    here instead of producing incomparable distances later.
    """
    record = _require_mapping(obj, "wire plan")
    kind = record.get(F_KIND)
    if kind not in _PLAN_FIELDS:
        raise WireFormatError(
            f"unknown wire plan kind {kind!r}; this decoder knows "
            f"{sorted(_PLAN_FIELDS)}"
        )
    _check_fields(record, _PLAN_FIELDS[kind], f"wire plan {kind!r}")
    what = f"wire plan {kind!r}"
    point = kind in (KIND_KNN, KIND_RANGE, KIND_TOPL)
    mode = _optional_choice(
        record, F_MODE, what, SEARCH_MODES if point else MATRIX_MODES
    )
    if kind == KIND_KNN:
        return KnnPlan(
            probe=decode_probe(record.get(F_PROBE), k),
            count=_required_int(record, F_COUNT, what),
            mode=mode,
            index=_optional_choice(record, F_INDEX, what, INDEX_BACKENDS),
        )
    if kind == KIND_RANGE:
        radius = _optional_float(record, F_RADIUS, what)
        if radius is None:
            raise WireFormatError(f"{what} needs a radius")
        return RangePlan(
            probe=decode_probe(record.get(F_PROBE), k),
            radius=radius,
            mode=mode,
            index=_optional_choice(record, F_INDEX, what, INDEX_BACKENDS),
        )
    if kind == KIND_TOPL:
        return TopLPlan(
            probe=decode_probe(record.get(F_PROBE), k),
            top_l=_required_int(record, F_TOP_L, what),
            mode=mode,
        )
    mode = mode if mode is not None else "exact"
    threshold = _optional_float(record, F_THRESHOLD, what)
    chunk_size = record.get(F_CHUNK_SIZE)
    if chunk_size is None:
        chunk_size = 64
    elif isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise WireFormatError(f"{what}.{F_CHUNK_SIZE} must be an integer")
    if kind == KIND_MATRIX_PAIRWISE:
        return PairwiseMatrixPlan(
            mode=mode, threshold=threshold, chunk_size=chunk_size
        )
    return CrossMatrixPlan(
        col_store=_decode_store(record.get(F_COL_STORE)),
        mode=mode,
        threshold=threshold,
        chunk_size=chunk_size,
    )


# ------------------------------------------------------------------- results
def encode_result(plan: Plan, result: Any) -> Dict[str, Any]:
    """Encode one successful plan result (point list or matrix)."""
    if isinstance(plan, (KnnPlan, RangePlan, TopLPlan)):
        return {
            F_OK: True,
            F_KIND: RESULT_POINT,
            F_VALUE: [
                [_wire_node(node, "result node"), float(distance)]
                for node, distance in result
            ],
        }
    return {
        F_OK: True,
        F_KIND: RESULT_MATRIX,
        F_VALUE: {
            F_ROW_NODES: [_wire_node(n, "matrix row node") for n in result.row_nodes],
            F_COL_NODES: [_wire_node(n, "matrix col node") for n in result.col_nodes],
            F_VALUES: [[float(v) for v in row] for row in result.values],
            F_MODE: result.mode,
            F_EXECUTOR_USED: result.executor_used,
        },
    }


def encode_error(error: BaseException) -> Dict[str, Any]:
    """Encode a failure as its typed wire object (first matching kind)."""
    for kind, cls in WIRE_ERROR_KINDS:
        if isinstance(error, cls):
            return {
                F_OK: False,
                F_ERROR: {F_KIND: kind, F_MESSAGE: str(error)},
            }
    # Unreachable: the last row of WIRE_ERROR_KINDS matches Exception, and
    # BaseException oddities (KeyboardInterrupt) never reach the encoder.
    return {
        F_OK: False,
        F_ERROR: {F_KIND: ERROR_INTERNAL, F_MESSAGE: str(error)},
    }


def decode_error(obj: Any) -> BaseException:
    """Decode a wire error object back into its typed exception instance."""
    record = _require_mapping(obj, "wire error")
    kind = record.get(F_KIND)
    cls = _ERROR_DECODERS.get(kind)
    if cls is None:
        raise WireFormatError(f"unknown wire error kind {kind!r}")
    message = record.get(F_MESSAGE)
    if not isinstance(message, str):
        raise WireFormatError("wire error message must be a string")
    return cls(message)


def decode_result(obj: Any) -> Any:
    """Decode one result slot: the value, or *raise* its typed error.

    Point results come back as ``[(node, distance), ...]`` tuples and
    matrix results as a :class:`repro.engine.matrix.MatrixResult` (with
    fresh, empty stats — per-tier counters live in the server's telemetry,
    not on the wire), mirroring what an in-process session returns.
    """
    record = _require_mapping(obj, "wire result")
    if not record.get(F_OK, False):
        raise decode_error(record.get(F_ERROR))
    kind = record.get(F_KIND)
    value = record.get(F_VALUE)
    if kind == RESULT_POINT:
        if not isinstance(value, list):
            raise WireFormatError("wire point result value must be a list")
        decoded: List[Tuple[Any, float]] = []
        for item in value:
            if not isinstance(item, list) or len(item) != 2:
                raise WireFormatError(
                    "wire point result items must be [node, distance] pairs"
                )
            decoded.append((item[0], float(item[1])))
        return decoded
    if kind == RESULT_MATRIX:
        from repro.engine.matrix import MatrixResult

        table = _require_mapping(value, "wire matrix result value")
        _check_fields(
            table,
            frozenset({F_ROW_NODES, F_COL_NODES, F_VALUES, F_MODE, F_EXECUTOR_USED}),
            "wire matrix result",
        )
        return MatrixResult(
            row_nodes=list(table.get(F_ROW_NODES, [])),
            col_nodes=list(table.get(F_COL_NODES, [])),
            values=[[float(v) for v in row] for row in table.get(F_VALUES, [])],
            mode=table.get(F_MODE),
            executor="remote",
            executor_used=table.get(F_EXECUTOR_USED),
            stats=EngineStats(),
        )
    raise WireFormatError(f"unknown wire result kind {kind!r}")


# ----------------------------------------------------------------- envelopes
def _check_envelope(payload: Any, what: str) -> Dict[str, Any]:
    envelope = _require_mapping(payload, what)
    if envelope.get(F_FORMAT) != WIRE_FORMAT:
        raise WireFormatError(
            f"{what} format marker is {envelope.get(F_FORMAT)!r}, expected "
            f"{WIRE_FORMAT!r}"
        )
    version = envelope.get(F_VERSION)
    if version not in SUPPORTED_VERSIONS:
        raise WireFormatError(
            f"{what} schema version {version!r} is not supported "
            f"(this build speaks {SUPPORTED_VERSIONS})"
        )
    return envelope


def encode_request(
    plans: Sequence[Plan], tenant: Optional[str] = None
) -> Dict[str, Any]:
    """Build a request envelope carrying ``plans`` (and a tenant key)."""
    envelope: Dict[str, Any] = {
        F_FORMAT: WIRE_FORMAT,
        F_VERSION: SCHEMA_VERSION,
        F_PLANS: [encode_plan(plan) for plan in plans],
    }
    if tenant is not None:
        if not isinstance(tenant, str):
            raise WireFormatError("tenant must be a string")
        envelope[F_TENANT] = tenant
    return envelope


def decode_request(payload: Any, k: int) -> Tuple[List[Plan], Optional[str]]:
    """Decode a request envelope into ``(plans, tenant)``, strictly."""
    envelope = _check_envelope(payload, "wire request")
    _check_fields(
        envelope, frozenset({F_FORMAT, F_VERSION, F_TENANT, F_PLANS}), "wire request"
    )
    plans_obj = envelope.get(F_PLANS)
    if not isinstance(plans_obj, list) or not plans_obj:
        raise WireFormatError("wire request needs a non-empty plans list")
    tenant = _optional_str(envelope, F_TENANT, "wire request")
    return [decode_plan(obj, k) for obj in plans_obj], tenant


def encode_response(results: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Build a response envelope from already-encoded result slots."""
    return {
        F_FORMAT: WIRE_FORMAT,
        F_VERSION: SCHEMA_VERSION,
        F_RESULTS: list(results),
    }


def encode_error_response(error: BaseException) -> Dict[str, Any]:
    """Build an envelope-level error response (bad request, shed, expired)."""
    return {
        F_FORMAT: WIRE_FORMAT,
        F_VERSION: SCHEMA_VERSION,
        F_ERROR: encode_error(error)[F_ERROR],
    }


def decode_response(payload: Any) -> List[Any]:
    """Decode a response envelope into per-plan values.

    An envelope-level error raises its typed exception; per-plan errors are
    raised lazily — the returned list holds the decoded value *or* the
    typed exception instance for each slot, mirroring
    ``execute_batch(..., return_exceptions=True)``.
    """
    envelope = _check_envelope(payload, "wire response")
    if F_ERROR in envelope:
        raise decode_error(envelope[F_ERROR])
    results = envelope.get(F_RESULTS)
    if not isinstance(results, list):
        raise WireFormatError("wire response needs a results list")
    decoded: List[Any] = []
    for slot in results:
        try:
            decoded.append(decode_result(slot))
        except ReproError as error:
            decoded.append(error)
    return decoded
