// These tests run the repository's own built-ins through the conformance
// suite — the same battery a third-party method or transport module is
// expected to call from its tests (see examples/external_method).
package fluxtest_test

import (
	"strings"
	"testing"

	flux "repro"
	"repro/fluxtest"
	"repro/internal/methods"
)

func TestBuiltinRoundersConform(t *testing.T) {
	for _, m := range methods.All() {
		if strings.HasPrefix(m.Name, "fluxtest/") {
			continue // suite-registered duplicates from earlier subtests
		}
		t.Run(m.Name, func(t *testing.T) {
			fluxtest.TestRounder(t, fluxtest.RounderSpec{
				Name:       m.Name,
				New:        m.New,
				Registered: true,
			})
		})
	}
}

func TestInProcessTransportConforms(t *testing.T) {
	fluxtest.TestTransport(t, fluxtest.TransportSpec{
		Name: "in-process",
		New:  flux.InProcess,
	})
}

func TestTCPTransportConforms(t *testing.T) {
	fluxtest.TestTransport(t, fluxtest.TransportSpec{
		Name: "tcp",
		New:  func() flux.Transport { return flux.TCP() },
	})
}

func TestDeploymentProtocol(t *testing.T) {
	fluxtest.TestDeployment(t)
}
