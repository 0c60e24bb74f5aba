"""Machine descriptions for the evaluation platforms.

The paper evaluates on two DOE/NVIDIA supercomputers:

* **Perlmutter** -- 4 NVIDIA A100 (40 GB) per node, 64-core AMD EPYC 7763,
  Slingshot interconnect, GASNet-EX networking.
* **Eos** -- NVIDIA DGX H100 nodes: 8 H100 (80 GB) per node, 112-core Intel
  Xeon Platinum, Infiniband interconnect, UCX networking.

Only the *relative* performance of traced vs untraced configurations is
evaluated, so the machine model captures GPU count per node, per-GPU
relative throughput, and interconnect latency/bandwidth.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineConfig:
    """A homogeneous GPU cluster description."""

    name: str
    gpus_per_node: int
    gpu_memory_gb: float
    cpu_cores: int
    interconnect: str
    # Relative GPU throughput (A100 == 1.0). Affects task execution costs.
    gpu_throughput: float
    # Network round-trip latency in seconds and per-node bandwidth B/s.
    network_latency: float
    network_bandwidth: float

    def nodes_for(self, gpus):
        """Number of nodes needed to host ``gpus`` GPUs (ceiling division)."""
        if gpus <= 0:
            raise ValueError("gpus must be positive")
        return max(1, -(-gpus // self.gpus_per_node))

    def gpus_on_node(self, gpus, node):
        """GPUs resident on ``node`` when ``gpus`` total are in use."""
        nodes = self.nodes_for(gpus)
        base = gpus // nodes
        extra = gpus % nodes
        return base + (1 if node < extra else 0)

    def __str__(self):
        return (
            f"{self.name}: {self.gpus_per_node}x GPU/node "
            f"({self.gpu_memory_gb} GB), {self.interconnect}"
        )


#: Perlmutter: 4x A100-40GB per node, Slingshot / GASNet-EX.
PERLMUTTER = MachineConfig(
    name="perlmutter",
    gpus_per_node=4,
    gpu_memory_gb=40.0,
    cpu_cores=64,
    interconnect="slingshot",
    gpu_throughput=1.0,
    network_latency=1.6e-5,
    network_bandwidth=2.0e10,
)

#: Eos: 8x H100-80GB per node (DGX H100), Infiniband / UCX.
EOS = MachineConfig(
    name="eos",
    gpus_per_node=8,
    gpu_memory_gb=80.0,
    cpu_cores=112,
    interconnect="infiniband",
    gpu_throughput=2.2,
    network_latency=1.1e-5,
    network_bandwidth=4.0e10,
)
