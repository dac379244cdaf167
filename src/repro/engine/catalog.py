"""The system catalog: ``pg_am``, ``pg_operator``, ``pg_opclass`` analogues.

Table 2 of the paper shows the single INSERT into ``pg_am`` that introduces
SP-GiST to PostgreSQL; :func:`default_catalog` performs the equivalent
registrations at runtime. Each ``pg_am`` row is registered with the
structure that backs its indexes, and :meth:`SystemCatalog.index_structure`
is the one place an access-method name is resolved to a class; the row's
``amcostestimate`` name is resolved by
:func:`repro.engine.cost.cost_estimator`. So adding an access method is
catalog inserts only, which is the paper's portability claim in executable
form: ``tests/engine/test_access_methods.py`` registers a fifth one and
runs it through SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CatalogError
from repro.engine.operators import Operator, builtin_operators
from repro.engine.opclass import NN_STRATEGY, OperatorClass


@dataclass(frozen=True)
class AccessMethodEntry:
    """One ``pg_am`` row; column-for-column with the paper's Table 2."""

    amname: str
    amowner: int = 0
    amstrategies: int = 20
    amsupport: int = 20
    amorderstrategy: int = 0
    amcanunique: bool = False
    amcanmulticol: bool = False
    amindexnulls: bool = False
    amconcurrent: bool = True
    amgettuple: str = "-"
    aminsert: str = "-"
    ambeginscan: str = "-"
    amrescan: str = "-"
    amendscan: str = "-"
    ammarkpos: str = "-"
    amrestrpos: str = "-"
    ambuild: str = "-"
    ambulkdelete: str = "-"
    amvacuumcleanup: str = "-"
    amcostestimate: str = "-"


def spgist_am_entry() -> AccessMethodEntry:
    """The paper's Table 2 row, verbatim."""
    return AccessMethodEntry(
        amname="SP_GiST",
        amowner=0,
        amstrategies=20,
        amsupport=20,
        amorderstrategy=0,  # SP-GiST entries have no inherent order
        amcanunique=False,
        amcanmulticol=False,
        amindexnulls=False,
        amconcurrent=True,
        amgettuple="spgistgettuple",
        aminsert="spgistinsert",
        ambeginscan="spgistbeginscan",
        amrescan="spgistrescan",
        amendscan="spgistendscan",
        ammarkpos="spgistmarkpos",
        amrestrpos="spgistrestrpos",
        ambuild="spgistbuild",
        ambulkdelete="spgistbulkdelete",
        amvacuumcleanup="-",
        amcostestimate="spgistcostestimate",
    )


class SystemCatalog:
    """Runtime-extensible registry of access methods, operators, opclasses."""

    def __init__(self) -> None:
        self.access_methods: dict[str, AccessMethodEntry] = {}
        #: amname -> ``structure(buffer, opclass, name, **opclass_kwargs)``,
        #: the class behind an index of that access method.
        self.structures: dict[str, Callable[..., Any]] = {}
        self.operators: dict[tuple[str, str, str], Operator] = {}
        self.opclasses: dict[str, OperatorClass] = {}

    # -- registration (the extension surface) ------------------------------------

    def register_access_method(
        self,
        entry: AccessMethodEntry,
        structure: Callable[..., Any] | None = None,
    ) -> None:
        """Insert a pg_am row (the paper's Table 2 INSERT).

        ``structure(buffer, opclass, name, **opclass_kwargs)`` builds the
        index an access method's opclasses create; without one (``heap``)
        the access method cannot back an index.
        """
        key = entry.amname.lower()
        if key in self.access_methods:
            raise CatalogError(f"access method {entry.amname!r} already exists")
        self.access_methods[key] = entry
        if structure is not None:
            self.structures[key] = structure

    def register_operator(self, operator: Operator) -> None:
        """Insert a pg_operator row (CREATE OPERATOR)."""
        key = (operator.name, operator.left_type, operator.right_type)
        if key in self.operators:
            raise CatalogError(f"operator {key} already exists")
        self.operators[key] = operator

    def register_opclass(self, opclass: OperatorClass) -> None:
        """Insert a pg_opclass row (CREATE OPERATOR CLASS)."""
        key = opclass.name.lower()
        if key in self.opclasses:
            raise CatalogError(f"operator class {opclass.name!r} already exists")
        if opclass.access_method.lower() not in self.access_methods:
            raise CatalogError(
                f"operator class {opclass.name!r} references unknown access "
                f"method {opclass.access_method!r}"
            )
        self.opclasses[key] = opclass

    # -- lookup --------------------------------------------------------------------

    def access_method(self, name: str) -> AccessMethodEntry:
        """Look up an access method by (case-insensitive) name."""
        try:
            return self.access_methods[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown access method {name!r}") from None

    def index_structure(
        self, opclass: OperatorClass, buffer: Any, name: str, **kwargs: Any
    ) -> Any:
        """A new, empty structure for an index of ``opclass`` named ``name``."""
        factory = self.structures.get(opclass.access_method.lower())
        if factory is None:
            raise CatalogError(
                f"access method {opclass.access_method!r} cannot back an index"
            )
        return factory(buffer, opclass, name, **kwargs)

    def operator(self, name: str, left_type: str, right_type: str) -> Operator:
        """Look up an operator by name and operand types."""
        try:
            return self.operators[(name, left_type, right_type)]
        except KeyError:
            raise CatalogError(
                f"unknown operator {name!r} for ({left_type}, {right_type})"
            ) from None

    def operators_named(self, name: str, left_type: str) -> list[Operator]:
        """All operators called ``name`` whose left operand is ``left_type``."""
        return [
            op
            for (op_name, lt, _), op in self.operators.items()
            if op_name == name and lt == left_type
        ]

    def opclass(self, name: str) -> OperatorClass:
        """Look up an operator class by (case-insensitive) name."""
        try:
            return self.opclasses[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown operator class {name!r}") from None

    def default_opclass(self, access_method: str, for_type: str) -> OperatorClass:
        """First registered opclass of ``access_method`` for ``for_type``."""
        for opclass in self.opclasses.values():
            if (
                opclass.access_method.lower() == access_method.lower()
                and opclass.for_type == for_type
            ):
                return opclass
        raise CatalogError(
            f"no operator class for access method {access_method!r} and "
            f"type {for_type!r}"
        )


def _baseline(cls: type) -> Callable[..., Any]:
    """The structure factory of a baseline access method."""
    return lambda buffer, _opclass, name, **_kw: cls(buffer, name=name)


def default_catalog() -> SystemCatalog:
    """A catalog primed with the paper's access methods and opclasses.

    Built-ins mirror PostgreSQL 8.0.1 (Section 4.2): heap, btree, rtree,
    plus the SP_GiST access method and the five opclasses of Table 5 (trie,
    kd-tree, suffix tree) extended with the point quadtree and PMR quadtree
    used in Section 6.
    """
    from repro.baselines.bptree import BPlusTree
    from repro.baselines.hash import HashIndex
    from repro.baselines.rtree import RTree
    from repro.core.tree import SPGiSTIndex
    from repro.geometry.box import Box
    from repro.indexes.kdtree import KDTreeMethods
    from repro.indexes.pmr import PMRQuadtreeMethods
    from repro.indexes.pquadtree import PointQuadtreeMethods
    from repro.indexes.prquadtree import PRQuadtreeMethods
    from repro.indexes.suffix import SuffixTreeMethods
    from repro.indexes.trie import TrieMethods

    catalog = SystemCatalog()
    catalog.register_access_method(AccessMethodEntry(amname="heap"))
    catalog.register_access_method(
        AccessMethodEntry(
            amname="btree",
            amorderstrategy=1,
            amcanunique=True,
            amgettuple="btgettuple",
            aminsert="btinsert",
            ambuild="btbuild",
            amcostestimate="btcostestimate",
        ),
        structure=_baseline(BPlusTree),
    )
    catalog.register_access_method(
        AccessMethodEntry(
            amname="hash",
            amgettuple="hashgettuple",
            aminsert="hashinsert",
            ambuild="hashbuild",
            amcostestimate="hashcostestimate",
        ),
        structure=_baseline(HashIndex),
    )
    catalog.register_access_method(
        AccessMethodEntry(
            amname="rtree",
            amgettuple="rtgettuple",
            aminsert="rtinsert",
            ambuild="rtbuild",
            amcostestimate="rtcostestimate",
        ),
        structure=_baseline(RTree),
    )
    catalog.register_access_method(
        spgist_am_entry(),
        structure=lambda buffer, opclass, name, **kw: SPGiSTIndex(
            buffer, opclass.make_methods(**kw), name=name
        ),
    )

    for operator in builtin_operators():
        catalog.register_operator(operator)

    catalog.register_opclass(
        OperatorClass(
            name="SP_GiST_trie",
            access_method="SP_GiST",
            for_type="varchar",
            operators={1: "=", 2: "#=", 3: "?=", 4: "*=", NN_STRATEGY: "@@"},
            methods_factory=TrieMethods,
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="SP_GiST_kdtree",
            access_method="SP_GiST",
            for_type="point",
            operators={1: "@", 2: "^", NN_STRATEGY: "@@"},
            methods_factory=KDTreeMethods,
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="SP_GiST_suffix",
            access_method="SP_GiST",
            for_type="varchar",
            operators={1: "@=", NN_STRATEGY: "@@"},
            methods_factory=SuffixTreeMethods,
            key_extractor=SuffixTreeMethods.extract_keys,
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="SP_GiST_pquadtree",
            access_method="SP_GiST",
            for_type="point",
            operators={1: "@", 2: "^", NN_STRATEGY: "@@"},
            methods_factory=PointQuadtreeMethods,
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="SP_GiST_prquadtree",
            access_method="SP_GiST",
            for_type="point",
            operators={1: "@", 2: "^", NN_STRATEGY: "@@"},
            methods_factory=lambda world=Box(0.0, 0.0, 100.0, 100.0), **kw: (
                PRQuadtreeMethods(world, **kw)
            ),
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="SP_GiST_pmr",
            access_method="SP_GiST",
            for_type="lseg",
            operators={1: "=", 2: "&&", NN_STRATEGY: "@@"},
            methods_factory=lambda world=Box(0.0, 0.0, 100.0, 100.0), **kw: (
                PMRQuadtreeMethods(world, **kw)
            ),
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="btree_varchar",
            access_method="btree",
            for_type="varchar",
            operators={1: "<", 2: "<=", 3: "=", 4: ">=", 5: ">",
                       6: "#=", 7: "?=", 8: "*="},
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="btree_int",
            access_method="btree",
            for_type="int",
            operators={1: "<", 2: "<=", 3: "=", 4: ">=", 5: ">"},
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="hash_varchar",
            access_method="hash",
            for_type="varchar",
            operators={1: "="},
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="hash_int",
            access_method="hash",
            for_type="int",
            operators={1: "="},
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="rtree_point",
            access_method="rtree",
            for_type="point",
            operators={1: "@", 2: "^"},
        )
    )
    catalog.register_opclass(
        OperatorClass(
            name="rtree_lseg",
            access_method="rtree",
            for_type="lseg",
            operators={1: "=", 2: "&&"},
        )
    )
    return catalog
