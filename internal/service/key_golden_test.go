package service

import (
	"encoding/json"
	"testing"
)

// keyGolden pins the exact cache key of every spec the key tests and the
// API docs submit: FuzzJobSpecKey's seed corpus, TestKeyCanonicalization's
// and TestAdversarySpecNormalization's specs, and docs/API.md's example
// bodies. A key is a hash of the normalized spec, so a refactor of
// normalization that moves any of these strings splits the daemon's cache
// from every key it handed out before.
var keyGolden = []struct{ body, key string }{
	// FuzzJobSpecKey's seed corpus.
	{`{"protocol":"two-choices","counts":[600,400]}`, "sha256:ed7543fceb0d4ff16194cdbe6df314df031c960ee410d94caa9a81133a175b30"},
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"liar","budget":8}`, "sha256:fb20ad67dc47720a5f147edba8eb854b7a3c4385ab126db779e5ebcf6b963b2e"},
	{`{"protocol":"core","counts":[600,400],"adversary":"corrupt","budget":0,"model":"poisson"}`, "sha256:8c1592123a40b07ac1381d5ca2589a7ce5ef9c0608f7aa25601985a082ca2175"},
	{`{"protocol":"voter","counts":[1,2,3],"adversary":"late:2","budget":4,"engine":"per-node"}`, "sha256:0b324b483787bb690b00bacf46da39bf802827e5e073557722203775960cc058"},
	{`{"protocol":"3-majority","counts":[9,3],"adversary":"delay-set","budget":1,"seed":7,"trials":3}`, "sha256:e5c3c21ace64efd02ee0a21aa095e3e2e2db1d31059ee7d5fd93b3cf8d716cdb"},
	{`{"protocol":"usd","counts":[5,5],"observeInterval":2,"churn":0.001}`, "sha256:17949f1beea6ad915e0220c49bef917711ebabbac5cdefb741091aabc0646c94"},
	// TestKeyCanonicalization.
	{`{"protocol":"two-choices","counts":[600,400],"seed":1,"trials":1,"model":"sequential","engine":"auto"}`, "sha256:ed7543fceb0d4ff16194cdbe6df314df031c960ee410d94caa9a81133a175b30"},
	{`{"protocol":"two-choices","counts":[600,400],"observeInterval":10}`, "sha256:7f4f8dd120fd062320bff08c1c26eb78ff9a0f502ea560a99f80898b669e1cfa"},
	{`{"protocol":"two-choices","counts":[600,400],"observeInterval":10,"cancelOnDisconnect":true}`, "sha256:7f4f8dd120fd062320bff08c1c26eb78ff9a0f502ea560a99f80898b669e1cfa"},
	{`{"protocol":"two-choices","counts":[600,400],"seed":2}`, "sha256:7103b799fad57b82b553bb6d2a602e9fdb4ecbcc957eb6264ceaf28d8c518277"},
	{`{"protocol":"two-choices","counts":[600,400],"observeInterval":5}`, "sha256:c1f3faf741adb72f4dcc9ad99043934e9cf3c2504809f9ceab6458ee4cb5bde0"},
	{`{"protocol":"two-choices","counts":[600,400],"model":"poisson"}`, "sha256:30d89adfc795010d3d199c9532dc5d7e0979ec094f1769497cdd513a22766fec"},
	{`{"protocol":"two-choices","counts":[601,399]}`, "sha256:ca53f7c783f58880de8f97ec59b0b49c884806b6613bff805a8c64a1f64a86ff"},
	{`{"protocol":"two-choices","counts":[600,400],"trials":4}`, "sha256:393b64efa82d2dc7719f4850520d0ab6c2851d1607ed39b2af21711ca2fc7ae1"},
	// TestAdversarySpecNormalization.
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"corrupt"}`, "sha256:ed7543fceb0d4ff16194cdbe6df314df031c960ee410d94caa9a81133a175b30"},
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"none"}`, "sha256:ed7543fceb0d4ff16194cdbe6df314df031c960ee410d94caa9a81133a175b30"},
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"late:2"}`, "sha256:ed7543fceb0d4ff16194cdbe6df314df031c960ee410d94caa9a81133a175b30"},
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"byzantine","budget":8}`, "sha256:fb20ad67dc47720a5f147edba8eb854b7a3c4385ab126db779e5ebcf6b963b2e"},
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"late:2","budget":8}`, "sha256:e3868606abe821682663d42371013fb66279e0a5049033e85fa255bf348af778"},
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"late","adversaryLag":2,"budget":8}`, "sha256:e3868606abe821682663d42371013fb66279e0a5049033e85fa255bf348af778"},
	{`{"protocol":"two-choices","counts":[600,400],"adversary":"late","adversaryLag":3,"budget":8}`, "sha256:73422e66fa0d14ff06b7bcdd99f4259c397dad9e8749b966da997097f16450b0"},
	// docs/API.md: the quickstart body and the JobSpec example.
	{`{"protocol":"two-choices","counts":[600000,400000],"engine":"occupancy"}`, "sha256:3c789441b822d8e4ea9a7d84fd4e37ce2af12d8500b90a5f17ce193f7d1c6ff0"},
	{`{
  "protocol": "two-choices",
  "counts": [600000, 400000],
  "seed": 1,
  "model": "sequential",
  "engine": "auto",
  "maxTime": 0,
  "maxRounds": 0,
  "maxPhases": 0,
  "churn": 0,
  "responseDelay": 0,
  "leapEpsilon": 0,
  "odeThreshold": 0,
  "adversary": "",
  "budget": 0,
  "adversaryLag": 0,
  "trials": 1,
  "observeInterval": 0,
  "cancelOnDisconnect": false
}`, "sha256:b0285dd1426a1e663ab6086e0ee0dd674aa223e91ba0bab746660b2d364ecaa4"},
}

func TestKeyGolden(t *testing.T) {
	for _, g := range keyGolden {
		var sp JobSpec
		if err := json.Unmarshal([]byte(g.body), &sp); err != nil {
			t.Fatalf("%s: %v", g.body, err)
		}
		key, err := sp.Key()
		if err != nil {
			t.Errorf("%s: %v", g.body, err)
			continue
		}
		if key != g.key {
			t.Errorf("key of %s\n  got  %s\n  want %s", g.body, key, g.key)
		}
	}
}
