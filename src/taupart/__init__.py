"""Detour-order path partitions, detour colourings and star colourings.

The detour order tau(g) is the number of vertices on a longest path.  This
package constructs partitions of the vertex set whose parts meet prescribed
detour bounds (two-part, via ear-decomposition induction on 2-connected
graphs, and multiway), colourings whose classes have bounded detour order,
and star colourings within tau(g) colours; every construction is checked by
independent brute-force verification, and constructions that misfire are
recorded as replayable witnesses rather than papered over.
"""

from .detour import DetourRecord, detour_order, detour_order_dfs, has_path_of_order
from .ears import Ear, EarDecomposition, ear_decompose, is_two_connected
from .errors import (
    CapacityError,
    CounterexampleError,
    Graph6Error,
    GraphError,
    NotTwoConnectedError,
    StarRepairError,
    TargetError,
)
from .graphs import (
    Graph,
    add_ear,
    blocks,
    complete_graph,
    cycle_graph,
    encode_graph6,
    induced_subgraph,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_2connected,
)
from .multiway import ColoringCertificate, detour_coloring, exact_detour_chromatic, t_partition, verify_detour_coloring
from .partition import (
    CaseStep,
    FailureWitness,
    PartitionCertificate,
    PartitionTarget,
    brute_force_partition,
    tau_partition,
    tau_partition_2connected,
)
from .starcolor import (
    PairPartitionColoring,
    exact_star_chromatic,
    find_bicolored_p4s,
    pair_partition_coloring,
    repair_bicolored_p4s,
    star_coloring,
    verify_star_coloring,
)
from .oracle import SweepReport, sweep_bounds, sweep_ppc, verify_record

__version__ = "0.1.0"
