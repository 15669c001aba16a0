package cloudsim_test

import (
	"fmt"
	"time"

	"prestroid/internal/cloudsim"
)

// ExampleCheapestFeasible picks the cluster tier for a training job whose
// padded batch exceeds a single 16 GB GPU.
func ExampleCheapestFeasible() {
	job := cloudsim.TrainingJob{
		ModelName:     "Prestroid (Full-300)",
		Params:        600_000,
		BatchBytes:    3_200_000_000, // batch 256 of 1945-node padded plans
		EpochTime1GPU: 5 * time.Minute,
		Epochs:        51,
	}
	cluster, cost, err := cloudsim.CheapestFeasible(cloudsim.NCv3Clusters(), job)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s for $%.2f\n", cluster.Name, cost)
	// Output:
	// NC24s_V3 for $28.28
}
