package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// maxTenants bounds how many tenants one command line may declare.
const maxTenants = 4096

// ParseTenants builds validated tenant configs from the command-line
// surface: n tenants named t0..t{n-1}, weights taken from the
// comma-separated list (an empty list is all-1s; a short list repeats its
// last value), and one shared quota applied to every tenant.
func ParseTenants(n int, weightCSV string, quota int) ([]TenantConfig, error) {
	if n <= 0 || n > maxTenants {
		return nil, fmt.Errorf("%w: tenant count %d out of [1, %d]", ErrBadTenantConfig, n, maxTenants)
	}
	var weights []int
	if strings.TrimSpace(weightCSV) != "" {
		for _, f := range strings.Split(weightCSV, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("%w: weight %q", ErrBadTenantConfig, f)
			}
			weights = append(weights, w)
		}
	}
	tenants := make([]TenantConfig, n)
	for i := range tenants {
		w := 1
		if len(weights) > 0 {
			w = weights[min(i, len(weights)-1)]
		}
		tenants[i] = TenantConfig{Name: "t" + strconv.Itoa(i), Weight: w, Quota: quota}
		if err := tenants[i].Validate(); err != nil {
			return nil, err
		}
	}
	return tenants, nil
}
