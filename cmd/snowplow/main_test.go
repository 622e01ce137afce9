package main

import (
	"errors"
	"testing"

	"github.com/repro/snowplow/internal/serve"
)

// TestRunRejectsTenantCount checks that a tenant count below 1 is refused
// in every mode, not silently run as one campaign.
func TestRunRejectsTenantCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		err := run("syzkaller", "6.8", "", 1000, 1, 1, 1, 1, 0, 0.1, 1, false, "off", "", n, onlineFlags{})
		if !errors.Is(err, serve.ErrBadTenantConfig) {
			t.Errorf("-tenants %d: got %v, want ErrBadTenantConfig", n, err)
		}
	}
}
