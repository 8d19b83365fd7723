package netcoord

import (
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"fedtrans/internal/data"
)

// welcome plays a coordinator that sends js as the WELCOME config to
// serveConn over net.Pipe and then hangs up, and returns how the agent's
// connection ended.
func welcome(t testing.TB, js []byte, getDS func(RunConfig) *data.Dataset) error {
	t.Helper()
	coord, agent := net.Pipe()
	defer coord.Close()
	served := make(chan error, 1)
	go func() { served <- serveConn(agent, getDS) }()
	fc := newFrameConnTimeout(coord, 5*time.Second)
	if ft, _, err := fc.read(); err != nil || ft != ftHello {
		t.Fatalf("HELLO: frame 0x%02x, err %v", ft, err)
	}
	if err := fc.write(ftWelcome, append([]byte{0, ProtoVersion}, js...)); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	return <-served
}

// buildDS builds the dataset a WELCOME describes, as RunAgents does.
func buildDS(rc RunConfig) *data.Dataset {
	if rc.Generative {
		return data.GenerateLazy(rc.Data)
	}
	return data.Generate(rc.Data)
}

// TestAgentRefusesHostileWelcome: a WELCOME whose dataset the agent
// cannot build is ErrBadHandshake before anything is built. The unknown
// profile used to panic the worker goroutine, and with it the agent
// process; the oversized ones sized the agent's shards unchecked.
func TestAgentRefusesHostileWelcome(t *testing.T) {
	for _, tc := range []struct {
		name string
		rc   RunConfig
	}{
		{"unknown profile", RunConfig{Data: data.Config{Profile: "imagenet", Clients: 2}}},
		{"no profile", RunConfig{Data: data.Config{Clients: 2}}},
		{"negative clients", RunConfig{Data: data.Config{Profile: "femnist", Clients: -3}}},
		{"a client's training set", RunConfig{Data: data.Config{Profile: "femnist", Clients: 2, MaxSamples: 1 << 40}, Generative: true}},
		{"a materialized population", RunConfig{Data: data.Config{Profile: "femnist", Clients: 1100, MaxSamples: 4096}}},
	} {
		js, err := json.Marshal(tc.rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := welcome(t, js, buildDS); !errors.Is(err, ErrBadHandshake) {
			t.Errorf("%s: the agent connection ended with %v, want ErrBadHandshake", tc.name, err)
		}
	}
	js, _ := json.Marshal(RunConfig{Data: loopDataCfg()})
	if err := welcome(t, js, buildDS); err != nil && !errors.Is(err, errReconnect) {
		t.Errorf("a valid WELCOME: the agent connection ended with %v", err)
	}
}

// FuzzWelcomeConfig: whatever JSON a WELCOME carries, the agent never
// panics, and what it allocates for the handshake stays bounded. The
// fuzzed getDS synthesizes client 0 of the accepted config generatively,
// so a materialized population is held to data's ceiling by
// TestCheckBoundsConfig rather than built here.
func FuzzWelcomeConfig(f *testing.F) {
	for _, rc := range []RunConfig{
		{Data: loopDataCfg()},
		{Data: data.Config{Profile: "scale", Clients: 1_000_000, MinSamples: 8, MaxSamples: 16, TestSamples: 8}, Generative: true},
		{Data: data.Config{Profile: "imagenet"}},
		{Data: data.Config{Profile: "cifar10", Clients: 100_000_000, MaxSamples: 4096}},
	} {
		js, err := json.Marshal(rc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Add([]byte(`{"data":{"profile":"vit","clients":-1,"heterogeneity":-0.5}}`))
	f.Fuzz(func(t *testing.T, js []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		welcome(t, js, func(rc RunConfig) *data.Dataset {
			ds := data.GenerateLazy(rc.Data)
			ds.Fetch(&data.ClientCursor{}, 0)
			return ds
		})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("a %d-byte WELCOME made the agent allocate %d MiB", len(js), grew>>20)
		}
	})
}
