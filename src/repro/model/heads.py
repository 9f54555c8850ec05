"""Graph readout and metric prediction head (Eq. 6)."""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Module, Tensor

#: Number of predicted metrics (offset, CMRR, UGB, gain, noise).
NUM_METRICS = 5


class ReadoutHead(Module):
    """Global readout ``u = sum_i MLP(v_i)`` followed by the FC metric head.

    Args:
        hidden: node embedding width.
        rng: parameter-init RNG.
        num_metrics: output width (the paper's five metrics).
    """

    def __init__(
        self, hidden: int, rng: np.random.Generator, num_metrics: int = NUM_METRICS
    ) -> None:
        self.node_mlp = MLP([hidden, hidden], rng)
        self.fc = MLP([hidden, hidden, num_metrics], rng)
        self.num_metrics = num_metrics

    def forward(self, node_embeddings: Tensor, num_graphs: int = 1) -> Tensor:
        """Predict normalized metrics from final node embeddings.

        Args:
            node_embeddings: (num_graphs * num_nodes, hidden) tensor after
                L layers of message passing, batch-major: the nodes of
                graph ``b`` are rows ``b * num_nodes`` onward.
            num_graphs: number of graphs stacked in ``node_embeddings``.

        Returns:
            A ``(num_graphs, num_metrics)`` tensor of predictions; each
            graph's readout is the mean of its own nodes.
        """
        per_node = self.node_mlp(node_embeddings)
        pooled = per_node.reshape(num_graphs, -1, per_node.shape[1]).mean(
            axis=1)
        return self.fc(pooled)
