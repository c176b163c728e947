"""GAP-style graph kernels hand-lowered to the uop ISA.

These are real implementations of bfs/sssp/pr/cc/bc/tc running over CSR
graphs laid out in the simulated data memory. Their branches are genuinely
data-dependent (visited tests, relaxation tests, adjacency intersections),
which is what makes the GAP suite hard on branch predictors; the synthetic
substitution therefore preserves the *mechanism* behind the paper's GAP
numbers rather than just a misprediction rate.

Each kernel restarts itself indefinitely (new source / next iteration) so
the functional emulator can produce a trace of any requested length.
"""

from __future__ import annotations

from repro.isa.opcodes import Op
from repro.workloads.graphs import CSRGraph
from repro.workloads.program import Program, ProgramBuilder

__all__ = ["build_bfs", "build_sssp", "build_pagerank", "build_cc",
           "build_bc", "build_tc", "KERNEL_BUILDERS"]

# Register conventions shared by all kernels.
R_ROW = 1        # row_ptr base
R_COL = 2        # col base
R_WT = 3         # weight base
R_N = 26         # number of nodes
R_ZERO = 27      # constant 0
R_INF = 28       # large constant (infinity)
R_SCR2 = 29      # scratch
R_THREE = 30     # constant 3 (word shift)
R_SCR = 31       # scratch (address computation)

_INF = (1 << 40)


class KernelBuilder:
    """ProgramBuilder wrapper with indexed memory access helpers."""

    def __init__(self, name: str, graph: CSRGraph) -> None:
        self.b = ProgramBuilder(name=name)
        self.graph = graph
        n, m = graph.num_nodes, graph.num_edges
        self.row_base = self.b.alloc_array(
            "row_ptr", n + 1, values=graph.row_ptr)
        self.col_base = self.b.alloc_array(
            "col", max(1, m), values=graph.col or [0])
        self.wt_base = self.b.alloc_array(
            "wt", max(1, m), values=graph.weight or [0])

    def prologue(self) -> None:
        b = self.b
        b.label("entry")
        b.movi(R_ROW, self.row_base)
        b.movi(R_COL, self.col_base)
        b.movi(R_WT, self.wt_base)
        b.movi(R_N, self.graph.num_nodes)
        b.movi(R_ZERO, 0)
        b.movi(R_INF, _INF)
        b.movi(R_THREE, 3)

    # indexed access: 3 uops each, matching a scaled-index addressing mode
    def load_idx(self, dst: int, base: int, idx: int) -> None:
        b = self.b
        b.emit(Op.SHL, dest=R_SCR, src1=idx, src2=R_THREE)
        b.alu(Op.ADD, R_SCR, base, R_SCR)
        b.load(dst, R_SCR)

    def store_idx(self, value: int, base: int, idx: int) -> None:
        b = self.b
        b.emit(Op.SHL, dest=R_SCR, src1=idx, src2=R_THREE)
        b.alu(Op.ADD, R_SCR, base, R_SCR)
        b.store(value, R_SCR)

    def clear_array(self, base_reg: int, value_reg: int,
                    label_stem: str) -> None:
        """for i in range(n): base[i] = value  (predictable loop)."""
        b = self.b
        idx, cond = 4, 5  # borrow low registers inside the loop
        b.movi(idx, 0)
        head = b.label(f"{label_stem}_clear")
        self.store_idx(value_reg, base_reg, idx)
        b.emit(Op.ADDI, dest=idx, src1=idx, imm=1)
        b.alu(Op.CMPLT, cond, idx, R_N)
        b.branch(Op.BNEZ, head, src1=cond)

    def finalize(self) -> Program:
        return self.b.finalize(entry_label="entry")


def build_bfs(graph: CSRGraph, seed: int = 0) -> Program:
    """Breadth-first search with an explicit frontier queue.

    The ``visited[v]`` test is the canonical GAP H2P branch: its outcome
    depends on the (power-law) visitation order and is essentially
    unpredictable mid-traversal.
    """
    del seed
    k = KernelBuilder("bfs", graph)
    b = k.b
    visited = b.alloc_array("visited", graph.num_nodes, values=0)
    queue = b.alloc_array("queue", graph.num_nodes + 1, values=0)
    # registers
    r_vis, r_queue = 6, 7
    r_head, r_tail = 8, 9
    r_u, r_i, r_iend, r_v = 10, 11, 12, 13
    r_tmp, r_cond, r_src, r_one = 14, 15, 16, 17

    k.prologue()
    b.movi(r_vis, visited)
    b.movi(r_queue, queue)
    b.movi(r_src, 0)
    b.movi(r_one, 1)

    outer = b.label("outer")
    k.clear_array(r_vis, R_ZERO, "bfs")
    b.movi(r_head, 0)
    b.movi(r_tail, 0)
    k.store_idx(r_one, r_vis, r_src)          # visited[src] = 1
    k.store_idx(r_src, r_queue, r_tail)       # queue[tail] = src
    b.emit(Op.ADDI, dest=r_tail, src1=r_tail, imm=1)

    bfs_loop = b.label("bfs_loop")
    b.alu(Op.CMPLT, r_cond, r_head, r_tail)
    b.branch(Op.BEQZ, "bfs_done", src1=r_cond)
    k.load_idx(r_u, r_queue, r_head)          # u = queue[head++]
    b.emit(Op.ADDI, dest=r_head, src1=r_head, imm=1)
    k.load_idx(r_i, R_ROW, r_u)               # i = row[u]
    b.emit(Op.ADDI, dest=r_tmp, src1=r_u, imm=1)
    k.load_idx(r_iend, R_ROW, r_tmp)          # iend = row[u+1]

    edge_loop = b.label("edge_loop")
    b.alu(Op.CMPLT, r_cond, r_i, r_iend)
    b.branch(Op.BEQZ, "bfs_loop", src1=r_cond, label="edge_exit")
    k.load_idx(r_v, R_COL, r_i)               # v = col[i]
    k.load_idx(r_tmp, r_vis, r_v)             # visited[v]?
    b.branch(Op.BNEZ, "bfs_skip", src1=r_tmp, label="visited_test")
    k.store_idx(r_one, r_vis, r_v)
    k.store_idx(r_v, r_queue, r_tail)
    b.emit(Op.ADDI, dest=r_tail, src1=r_tail, imm=1)
    b.label("bfs_skip")
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.jump(edge_loop)

    b.label("bfs_done")
    # next source: stride through nodes (n is a power of two in our graphs)
    b.emit(Op.ADDI, dest=r_src, src1=r_src, imm=17)
    b.emit(Op.ANDI, dest=r_src, src1=r_src, imm=graph.num_nodes - 1)
    b.jump(outer)
    del bfs_loop, edge_loop
    return k.finalize()


def build_sssp(graph: CSRGraph, seed: int = 0, num_rounds: int = 6) -> Program:
    """Bellman-Ford single-source shortest paths.

    The relaxation test ``dist[u] + w < dist[v]`` succeeds often early and
    rarely late — the classic phase-changing GAP branch. ``num_rounds``
    bounds the sweeps per source; the default trades convergence for a
    realistic mix of converging and still-changing relaxation phases.
    """
    del seed
    k = KernelBuilder("sssp", graph)
    b = k.b
    dist = b.alloc_array("dist", graph.num_nodes, values=_INF)
    r_dist = 6
    r_round, r_u, r_i, r_iend = 7, 8, 9, 10
    r_du, r_v, r_w, r_nd, r_dv = 11, 12, 13, 14, 15
    r_tmp, r_cond, r_src = 16, 17, 18

    k.prologue()
    b.movi(r_dist, dist)
    b.movi(r_src, 0)

    outer = b.label("outer")
    k.clear_array(r_dist, R_INF, "sssp")
    k.store_idx(R_ZERO, r_dist, r_src)        # dist[src] = 0
    b.movi(r_round, num_rounds)

    round_loop = b.label("round_loop")
    b.movi(r_u, 0)
    node_loop = b.label("node_loop")
    k.load_idx(r_du, r_dist, r_u)
    b.alu(Op.CMPLT, r_cond, r_du, R_INF)
    b.branch(Op.BEQZ, "next_node", src1=r_cond, label="unreached_test")
    k.load_idx(r_i, R_ROW, r_u)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_u, imm=1)
    k.load_idx(r_iend, R_ROW, r_tmp)
    edge_loop = b.label("sssp_edge")
    b.alu(Op.CMPLT, r_cond, r_i, r_iend)
    b.branch(Op.BEQZ, "next_node", src1=r_cond)
    k.load_idx(r_v, R_COL, r_i)
    k.load_idx(r_w, R_WT, r_i)
    b.alu(Op.ADD, r_nd, r_du, r_w)            # nd = du + w
    k.load_idx(r_dv, r_dist, r_v)
    b.alu(Op.CMPLT, r_cond, r_nd, r_dv)
    b.branch(Op.BEQZ, "no_relax", src1=r_cond, label="relax_test")
    k.store_idx(r_nd, r_dist, r_v)
    b.label("no_relax")
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.jump(edge_loop)
    b.label("next_node")
    b.emit(Op.ADDI, dest=r_u, src1=r_u, imm=1)
    b.alu(Op.CMPLT, r_cond, r_u, R_N)
    b.branch(Op.BNEZ, node_loop, src1=r_cond)
    b.emit(Op.ADDI, dest=r_round, src1=r_round, imm=-1)
    b.branch(Op.BNEZ, round_loop, src1=r_round)

    b.emit(Op.ADDI, dest=r_src, src1=r_src, imm=29)
    b.emit(Op.ANDI, dest=r_src, src1=r_src, imm=graph.num_nodes - 1)
    b.jump(outer)
    return k.finalize()


def build_pagerank(graph: CSRGraph, seed: int = 0) -> Program:
    """PageRank (fixed-point arithmetic), mostly predictable branches.

    Mirrors the paper's observation that *pr* has mispredicts off the
    critical path: branch behaviour is regular, the work is arithmetic
    (including DIV) and memory traffic.
    """
    del seed
    k = KernelBuilder("pr", graph)
    b = k.b
    rank = b.alloc_array("rank", graph.num_nodes, values=1 << 20)
    nxt = b.alloc_array("rank_next", graph.num_nodes, values=0)
    deg = b.alloc_array(
        "deg", graph.num_nodes,
        values=[max(1, graph.degree(i)) for i in range(graph.num_nodes)])
    r_rank, r_next, r_deg = 6, 7, 8
    r_u, r_i, r_iend, r_v = 9, 10, 11, 12
    r_sum, r_rv, r_dv, r_contrib = 13, 14, 15, 16
    r_tmp, r_cond = 17, 18

    k.prologue()
    b.movi(r_rank, rank)
    b.movi(r_next, nxt)
    b.movi(r_deg, deg)

    outer = b.label("outer")
    b.movi(r_u, 0)
    node_loop = b.label("node_loop")
    b.movi(r_sum, 1 << 16)                     # base rank term
    k.load_idx(r_i, R_ROW, r_u)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_u, imm=1)
    k.load_idx(r_iend, R_ROW, r_tmp)
    edge_loop = b.label("pr_edge")
    b.alu(Op.CMPLT, r_cond, r_i, r_iend)
    b.branch(Op.BEQZ, "pr_store", src1=r_cond)
    k.load_idx(r_v, R_COL, r_i)
    k.load_idx(r_rv, r_rank, r_v)
    k.load_idx(r_dv, r_deg, r_v)
    b.alu(Op.DIV, r_contrib, r_rv, r_dv)       # rank[v] / deg[v]
    b.alu(Op.ADD, r_sum, r_sum, r_contrib)
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.jump(edge_loop)
    b.label("pr_store")
    # damping: sum = sum - sum/8 (avoids another constant register)
    b.emit(Op.SHRI, dest=r_tmp, src1=r_sum, imm=3)
    b.alu(Op.SUB, r_sum, r_sum, r_tmp)
    k.store_idx(r_sum, r_next, r_u)
    b.emit(Op.ADDI, dest=r_u, src1=r_u, imm=1)
    b.alu(Op.CMPLT, r_cond, r_u, R_N)
    b.branch(Op.BNEZ, node_loop, src1=r_cond)
    # copy rank_next -> rank (predictable copy loop)
    b.movi(r_u, 0)
    copy_loop = b.label("pr_copy")
    k.load_idx(r_tmp, r_next, r_u)
    k.store_idx(r_tmp, r_rank, r_u)
    b.emit(Op.ADDI, dest=r_u, src1=r_u, imm=1)
    b.alu(Op.CMPLT, r_cond, r_u, R_N)
    b.branch(Op.BNEZ, copy_loop, src1=r_cond)
    b.jump(outer)
    return k.finalize()


def build_cc(graph: CSRGraph, seed: int = 0) -> Program:
    """Connected components via label propagation.

    ``label[v] < label[u]`` flips frequently in early sweeps and settles
    later — hard for history-based prediction while converging.
    """
    del seed
    k = KernelBuilder("cc", graph)
    b = k.b
    label_arr = b.alloc_array("labels", graph.num_nodes,
                              values=range(graph.num_nodes))
    r_lab = 6
    r_u, r_i, r_iend, r_v = 7, 8, 9, 10
    r_lu, r_lv, r_tmp, r_cond = 11, 12, 13, 14
    r_sweep = 15
    sweeps_per_restart = 8

    k.prologue()
    b.movi(r_lab, label_arr)

    outer = b.label("outer")
    # re-randomise labels: label[i] = i (init loop), then propagate
    b.movi(r_u, 0)
    init_loop = b.label("cc_init")
    k.store_idx(r_u, r_lab, r_u)
    b.emit(Op.ADDI, dest=r_u, src1=r_u, imm=1)
    b.alu(Op.CMPLT, r_cond, r_u, R_N)
    b.branch(Op.BNEZ, init_loop, src1=r_cond)
    b.movi(r_sweep, sweeps_per_restart)

    sweep_loop = b.label("cc_sweep")
    b.movi(r_u, 0)
    node_loop = b.label("cc_node")
    k.load_idx(r_lu, r_lab, r_u)
    k.load_idx(r_i, R_ROW, r_u)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_u, imm=1)
    k.load_idx(r_iend, R_ROW, r_tmp)
    edge_loop = b.label("cc_edge")
    b.alu(Op.CMPLT, r_cond, r_i, r_iend)
    b.branch(Op.BEQZ, "cc_next", src1=r_cond)
    k.load_idx(r_v, R_COL, r_i)
    k.load_idx(r_lv, r_lab, r_v)
    b.alu(Op.CMPLT, r_cond, r_lv, r_lu)
    b.branch(Op.BEQZ, "cc_nohop", src1=r_cond, label="hook_test")
    b.emit(Op.ADDI, dest=r_lu, src1=r_lv, imm=0)   # lu = lv
    k.store_idx(r_lu, r_lab, r_u)
    b.label("cc_nohop")
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.jump(edge_loop)
    b.label("cc_next")
    b.emit(Op.ADDI, dest=r_u, src1=r_u, imm=1)
    b.alu(Op.CMPLT, r_cond, r_u, R_N)
    b.branch(Op.BNEZ, node_loop, src1=r_cond)
    b.emit(Op.ADDI, dest=r_sweep, src1=r_sweep, imm=-1)
    b.branch(Op.BNEZ, sweep_loop, src1=r_sweep)
    b.jump(outer)
    return k.finalize()


def build_bc(graph: CSRGraph, seed: int = 0) -> Program:
    """Betweenness-centrality-style kernel: BFS with path counting plus a
    dependency accumulation sweep. Heavy on data-dependent loads; its
    mispredicts overlap with D-cache misses, as the paper notes for *bc*.
    """
    del seed
    k = KernelBuilder("bc", graph)
    b = k.b
    dist = b.alloc_array("dist", graph.num_nodes, values=_INF)
    sigma = b.alloc_array("sigma", graph.num_nodes, values=0)
    queue = b.alloc_array("queue", graph.num_nodes + 1, values=0)
    delta = b.alloc_array("delta", graph.num_nodes, values=0)
    r_dist, r_sig, r_queue, r_delta = 6, 7, 8, 9
    r_head, r_tail, r_u, r_i, r_iend, r_v = 10, 11, 12, 13, 14, 15
    r_du, r_dv, r_tmp, r_cond, r_src, r_one = 16, 17, 18, 19, 20, 21
    r_su, r_sv = 22, 23

    k.prologue()
    b.movi(r_dist, dist)
    b.movi(r_sig, sigma)
    b.movi(r_queue, queue)
    b.movi(r_delta, delta)
    b.movi(r_src, 0)
    b.movi(r_one, 1)
    b.jump("outer")

    # ---- forward BFS with sigma counting (called as a function) ----
    b.label("bc_forward")
    b.movi(r_head, 0)
    b.movi(r_tail, 0)
    k.store_idx(R_ZERO, r_dist, r_src)
    k.store_idx(r_one, r_sig, r_src)
    k.store_idx(r_src, r_queue, r_tail)
    b.emit(Op.ADDI, dest=r_tail, src1=r_tail, imm=1)
    fwd_loop = b.label("bc_fwd_loop")
    b.alu(Op.CMPLT, r_cond, r_head, r_tail)
    b.branch(Op.BEQZ, "bc_fwd_done", src1=r_cond)
    k.load_idx(r_u, r_queue, r_head)
    b.emit(Op.ADDI, dest=r_head, src1=r_head, imm=1)
    k.load_idx(r_du, r_dist, r_u)
    k.load_idx(r_su, r_sig, r_u)
    k.load_idx(r_i, R_ROW, r_u)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_u, imm=1)
    k.load_idx(r_iend, R_ROW, r_tmp)
    edge_loop = b.label("bc_fwd_edge")
    b.alu(Op.CMPLT, r_cond, r_i, r_iend)
    b.branch(Op.BEQZ, "bc_fwd_loop", src1=r_cond)
    k.load_idx(r_v, R_COL, r_i)
    k.load_idx(r_dv, r_dist, r_v)
    b.alu(Op.CMPLT, r_cond, r_dv, R_INF)
    b.branch(Op.BNEZ, "bc_seen", src1=r_cond, label="discover_test")
    b.emit(Op.ADDI, dest=r_dv, src1=r_du, imm=1)
    k.store_idx(r_dv, r_dist, r_v)
    k.store_idx(r_v, r_queue, r_tail)
    b.emit(Op.ADDI, dest=r_tail, src1=r_tail, imm=1)
    b.label("bc_seen")
    # shortest-path counting: if dist[v] == dist[u] + 1: sigma[v] += sigma[u]
    b.emit(Op.ADDI, dest=r_tmp, src1=r_du, imm=1)
    b.alu(Op.CMPEQ, r_cond, r_dv, r_tmp)
    b.branch(Op.BEQZ, "bc_nosig", src1=r_cond, label="sigma_test")
    k.load_idx(r_sv, r_sig, r_v)
    b.alu(Op.ADD, r_sv, r_sv, r_su)
    k.store_idx(r_sv, r_sig, r_v)
    b.label("bc_nosig")
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.jump(edge_loop)
    b.label("bc_fwd_done")
    b.ret()

    # ---- dependency accumulation over all edges ----
    b.label("bc_accumulate")
    b.movi(r_u, 0)
    acc_node = b.label("bc_acc_node")
    k.load_idx(r_du, r_dist, r_u)
    k.load_idx(r_i, R_ROW, r_u)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_u, imm=1)
    k.load_idx(r_iend, R_ROW, r_tmp)
    acc_edge = b.label("bc_acc_edge")
    b.alu(Op.CMPLT, r_cond, r_i, r_iend)
    b.branch(Op.BEQZ, "bc_acc_next", src1=r_cond)
    k.load_idx(r_v, R_COL, r_i)
    k.load_idx(r_dv, r_dist, r_v)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_du, imm=1)
    b.alu(Op.CMPEQ, r_cond, r_dv, r_tmp)
    b.branch(Op.BEQZ, "bc_acc_skip", src1=r_cond, label="dep_test")
    k.load_idx(r_tmp, r_delta, r_v)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_tmp, imm=1)
    k.store_idx(r_tmp, r_delta, r_u)
    b.label("bc_acc_skip")
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.jump(acc_edge)
    b.label("bc_acc_next")
    b.emit(Op.ADDI, dest=r_u, src1=r_u, imm=1)
    b.alu(Op.CMPLT, r_cond, r_u, R_N)
    b.branch(Op.BNEZ, acc_node, src1=r_cond)
    b.ret()

    # ---- outer driver ----
    b.label("outer")
    k.clear_array(r_dist, R_INF, "bc_d")
    k.clear_array(r_sig, R_ZERO, "bc_s")
    b.call("bc_forward")
    b.call("bc_accumulate")
    b.emit(Op.ADDI, dest=r_src, src1=r_src, imm=13)
    b.emit(Op.ANDI, dest=r_src, src1=r_src, imm=graph.num_nodes - 1)
    b.jump("outer")
    del fwd_loop, edge_loop, acc_node, acc_edge
    return k.finalize()


def build_tc(graph: CSRGraph, seed: int = 0) -> Program:
    """Triangle counting via sorted adjacency intersection.

    The three-way merge comparison is data-dependent on graph structure —
    the highest-MPKI kernel in GAP, and a tight taken-branch-dense loop
    (the paper's bank-conflict outlier). Each triangle {a,b,c} is counted
    once per participating edge (u,v) with v > u, i.e. exactly three times
    per pass; tests account for the factor.
    """
    del seed
    k = KernelBuilder("tc", graph)
    b = k.b
    r_u, r_e, r_eend, r_v = 6, 7, 8, 9
    r_i, r_iend, r_j, r_jend = 10, 11, 12, 13
    r_a, r_c, r_count, r_tmp, r_cond = 14, 15, 16, 17, 18

    k.prologue()
    b.movi(r_count, 0)

    outer = b.label("outer")
    b.movi(r_u, 0)
    node_loop = b.label("tc_node")
    k.load_idx(r_e, R_ROW, r_u)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_u, imm=1)
    k.load_idx(r_eend, R_ROW, r_tmp)
    edge_loop = b.label("tc_edge")
    b.alu(Op.CMPLT, r_cond, r_e, r_eend)
    b.branch(Op.BEQZ, "tc_next_node", src1=r_cond)
    k.load_idx(r_v, R_COL, r_e)
    # only count each triangle once: require v > u
    b.alu(Op.CMPLT, r_cond, r_u, r_v)
    b.branch(Op.BEQZ, "tc_next_edge", src1=r_cond, label="order_test")
    # intersect adj(u) and adj(v)
    k.load_idx(r_i, R_ROW, r_u)
    k.load_idx(r_j, R_ROW, r_v)
    b.emit(Op.ADDI, dest=r_tmp, src1=r_v, imm=1)
    k.load_idx(r_jend, R_ROW, r_tmp)
    b.emit(Op.ADDI, dest=r_iend, src1=r_eend, imm=0)
    merge_loop = b.label("tc_merge")
    b.alu(Op.CMPLT, r_cond, r_i, r_iend)
    b.branch(Op.BEQZ, "tc_next_edge", src1=r_cond)
    b.alu(Op.CMPLT, r_cond, r_j, r_jend)
    b.branch(Op.BEQZ, "tc_next_edge", src1=r_cond)
    k.load_idx(r_a, R_COL, r_i)
    k.load_idx(r_c, R_COL, r_j)
    b.alu(Op.CMPEQ, r_cond, r_a, r_c)
    b.branch(Op.BEQZ, "tc_neq", src1=r_cond, label="match_test")
    b.emit(Op.ADDI, dest=r_count, src1=r_count, imm=1)
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.emit(Op.ADDI, dest=r_j, src1=r_j, imm=1)
    b.jump(merge_loop)
    b.label("tc_neq")
    b.alu(Op.CMPLT, r_cond, r_a, r_c)
    b.branch(Op.BEQZ, "tc_adv_j", src1=r_cond, label="less_test")
    b.emit(Op.ADDI, dest=r_i, src1=r_i, imm=1)
    b.jump(merge_loop)
    b.label("tc_adv_j")
    b.emit(Op.ADDI, dest=r_j, src1=r_j, imm=1)
    b.jump(merge_loop)
    b.label("tc_next_edge")
    b.emit(Op.ADDI, dest=r_e, src1=r_e, imm=1)
    b.jump(edge_loop)
    b.label("tc_next_node")
    b.emit(Op.ADDI, dest=r_u, src1=r_u, imm=1)
    b.alu(Op.CMPLT, r_cond, r_u, R_N)
    b.branch(Op.BNEZ, node_loop, src1=r_cond)
    b.jump(outer)
    return k.finalize()


KERNEL_BUILDERS = {
    "bfs": build_bfs,
    "sssp": build_sssp,
    "pr": build_pagerank,
    "cc": build_cc,
    "bc": build_bc,
    "tc": build_tc,
}
